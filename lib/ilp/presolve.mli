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
    and {!tighten} is its exact instance. *)

open Numeric

type 'a over =
  | Tightened of 'a option array * 'a option array
      (** possibly-narrowed lower/upper bounds, same length as the input *)
  | Infeasible

type outcome = Q.t over

module Make (S : Scalar.S) : sig
  type rows
  (** A model's constraints as [<=] rows over [S] ([>=] rows negated,
      [=] rows in both directions) plus its integrality flags. *)

  val compile : Model.t -> rows
  (** May raise [Numeric.Fastq.Overflow] on the fast scalar. *)

  val tighten :
    ?rounds:int -> rows -> lb:S.t option array -> ub:S.t option array ->
    S.t over
  (** As the top-level {!val-tighten}, over [S]. The input arrays are
      not modified. *)

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
