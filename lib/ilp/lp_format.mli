(** CPLEX-LP text format: export a {!Model.t} for external solvers.

    The paper's authors solved their ILPs with an off-the-shelf solver;
    this module is the interoperability path a deployment would use: dump
    the tailored contention model, solve it with CPLEX/Gurobi/GLPK, or
    archive it for audits.

    Emitted dialect:
    - [Maximize]/[Minimize] with a single named objective row;
    - [Subject To] rows [name: Σ coeff var {<=,>=,=} rhs];
    - [Bounds] rows [lb <= var <= ub], [var <= ub], [var >= lb],
      [var = v] and [var free];
    - [Generals] (integer variables) and [End].

    Rational coefficients are emitted exactly when their denominator is a
    product of 2s and 5s (finite decimal); any other denominator raises —
    the contention models only produce integers. *)

val to_string : Model.t -> string
(** @raise Invalid_argument on a coefficient without a finite decimal
    representation. *)

val to_canonical_string : Model.t -> string
(** [to_string] of the model's canonical representative
    ({!Canonical.of_model}): rows scaled to coprime integers, variables
    renamed [v0..vN] by structural fingerprint, rows sorted and renamed
    [c0..cN]. Structural twins emit byte-identical text, so the output
    is stable under variable/row build order and suitable for golden
    files and audit diffs.
    @raise Invalid_argument as {!to_string}. *)
