(** Bound-propagation presolve.

    Classic interval (activity) propagation: for every linear constraint,
    the range each variable can take given the others' bounds implies new
    bounds; integer variables round inward. Iterated a few rounds, this
    shrinks boxes before simplex runs and detects many infeasible
    branch-and-bound nodes without pivoting at all.

    Soundness: propagation never cuts any point that satisfies all
    constraints and the input bounds, so the feasible set — in particular
    every integer-feasible point — is preserved exactly.

    The propagation is written once over the solver's scalar
    ({!Numeric.Scalar.S}): {!Branch_bound} runs it on its tier's
    machine-word or bignum rationals, on rows compiled once per search,
    and {!tighten} is its exact instance. Propagation is incremental: a
    round visits only the rows whose minimum activity reads a bound that
    moved since they were last propagated, which changes nothing else
    about the result. *)

open Numeric

type 'a over =
  | Tightened of 'a option array * 'a option array
      (** possibly-narrowed lower/upper bounds, same length as the input *)
  | Infeasible

type outcome = Q.t over

module Make (S : Scalar.S) : sig
  type rows
  (** A model's constraints as [<=] rows over [S] ([>=] rows negated,
      [=] rows in both directions) plus its integrality flags and, per
      variable, the rows whose minimum activity reads its lower bound
      (positive coefficient) and its upper bound (negative one). *)

  val compile : Model.t -> rows
  (** May raise [Numeric.Fastq.Overflow] on the fast scalar. *)

  type dirty
  (** A set of rows still to propagate. Values are immutable. *)

  val every_row : rows -> dirty

  val moved : rows -> dirty -> var:int -> [ `Lb | `Ub ] -> dirty
  (** The set plus the rows that read the given bound of [var]: what a
      branch & bound child must propagate after branching moved that
      bound of its parent's presolved box. *)

  val tighten :
    ?rounds:int -> rows -> dirty -> lb:S.t option array ->
    ub:S.t option array -> S.t over * dirty
  (** As the top-level {!val-tighten}, over [S], propagating only the
      given rows and those a moved bound dirties, in row order within
      each round. A row none of whose minimum-side bounds moved since it
      was last propagated can neither tighten a bound nor prove the box
      empty, so when every row left out of the set was propagated under
      the bounds it reads now, the result and the [ilp.presolve.*]
      counters other than [rows_propagated] equal those of propagating
      every row. The second component is the set of rows still dirty
      when the round cap stopped the loop (empty at a fixpoint); it is
      only meaningful with [Tightened]. The input arrays are not
      modified. *)

  val satisfies : rows -> S.t array -> bool
  (** Whether a point satisfies every constraint (bounds not checked). *)
end

val tighten :
  ?rounds:int ->
  Model.t ->
  lb:Q.t option array ->
  ub:Q.t option array ->
  outcome
(** [rounds] caps the propagation sweeps (default 3).
    @raise Invalid_argument on a bound-array length mismatch. *)

val activity :
  lb:Q.t option array ->
  ub:Q.t option array ->
  Linexpr.t ->
  Q.t option * Q.t option
(** Minimum and maximum activity of a linear expression (constant term
    included) over the box: the single-row interval arithmetic {!tighten}
    propagates, exposed so static checks (redundancy / contradiction
    detection) share the exact same bounds. [None] encodes the
    corresponding infinity. Variable indices in the expression must be
    within the bound arrays. *)
