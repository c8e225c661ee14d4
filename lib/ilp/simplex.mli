(** Exact simplex over rationals, with warm-started re-solves.

    Solves the continuous relaxation of a {!Model.t} (integrality markers
    are ignored). All arithmetic is exact and every pivoting rule is
    least-index (Bland), so results are sound, termination is guaranteed
    and pivot totals are deterministic — the properties the WCET analysis
    needs from its solver.

    The solver is a bounded-variable simplex: variable bounds are kept
    implicit (nonbasic-at-lower/upper statuses, bound flips) rather than
    rewritten into extra rows, primal feasibility is established by a
    dual-simplex repair of the always-dual-feasible all-slack basis (no
    artificial variables), and a solved tableau can be kept as a
    warm-start state that re-optimises with a few dual pivots after
    bound tightenings — the {!Branch_bound} workload.

    Two tiers run the same algorithm: machine-word rationals
    ({!Numeric.Fastq}, any overflow raises and the solve falls back) and
    exact bignum rationals. Both certify every answer (see
    {!Cert.lp_cert}), so every answer can be checked independently. *)

open Numeric

exception Stalled
(** Raised when a solve exceeds its defensive pivot budget. Bland's rule
    terminates, so this firing indicates a solver bug. No tier catches
    it: both tiers take the same pivots, so a stall on one would be a
    stall on the other. *)

(** A solver tier exposing warm starts. Node boxes go in and answers
    come out in the tier's own scalar [S]; the certificate of an answer
    is built (in {!Q}) only when it is forced, which must happen before
    the state is re-solved. *)
module type ENGINE = sig
  module S : Numeric.Scalar.S

  type state

  val root_certified :
    Model.t -> lb:S.t option array -> ub:S.t option array ->
    state option * S.t Solution.over * Cert.lp_cert Lazy.t
  (** Cold solve under the given box (arrays of length
      [Model.num_vars]; they override the model's declared bounds), plus
      the certificate for the answer (see {!Cert.lp_cert}). A state is
      returned exactly when the solution is [Optimal]; it sits at the
      optimal basis and seeds {!branch}/{!reoptimize_certified}.
      @raise Invalid_argument on a bound-array length mismatch. *)

  val branch : state -> state
  (** Deep copy. Branch & bound copies on branch for its first child
      only: the down child pops first and re-solves a copy, so the
      parent's state survives its pivots. The up child pops only once
      the down subtree is done and re-solves the parent's state itself.
      That is safe because by then nothing reads the parent's state any
      more: the down child has copied it, and the certificate of a
      state's answer is forced before the state is re-solved (the
      certified search forces each node's before pushing its children,
      the plain search never forces one). *)

  val reoptimize_certified :
    state -> lb:S.t option array -> ub:S.t option array ->
    S.t Solution.over * Cert.lp_cert Lazy.t
  (** Dual-simplex re-solve (in place) after tightening bounds, plus the
      certificate. The state is a copy from {!branch} or one no caller
      reads again (branch & bound's last child takes its parent's state
      over); the certificate of the state's previous answer must have
      been forced or dropped. The new box must be contained in the box
      the state was last solved under — exactly what branching and
      presolve produce. After a non-[Optimal] result the state must not be
      reused. Warm re-solves only ever end [Optimal] or [Infeasible], so
      the certificate is an [Optimal_cert], a [Farkas_box] or a
      [Farkas_ray]. May raise {!Numeric.Fastq.Overflow} on the fast
      tier and {!Stalled} on any tier. *)
end

module Fast_engine : ENGINE
module Exact_engine : ENGINE

val fast : (module ENGINE)
(** {!Numeric.Fastq} machine-word arithmetic; raises
    {!Numeric.Fastq.Overflow} whenever a value leaves the representable
    range, so speed never costs correctness. *)

val exact : (module ENGINE)
(** Bignum {!Q} arithmetic; never overflows. *)

val solve : Model.t -> Solution.t
(** Solve with the bounds declared in the model, trying the fast tier
    first and redoing the solve exactly on overflow.
    @raise Stalled on a solver bug (see {!exception-Stalled}). *)

val solve_certified : Model.t -> Solution.t * Cert.lp_cert
(** {!solve} plus the certificate for the answer.
    @raise Stalled as {!solve}. *)

val solve_with_bounds_certified :
  Model.t -> lb:Q.t option array -> ub:Q.t option array ->
  Solution.t * Cert.lp_cert
(** Solve with overriding variable bounds, plus the certificate; the
    arrays must have length [Model.num_vars]. The model's declared bounds
    are ignored in favour of the arrays.
    @raise Invalid_argument on a length mismatch.
    @raise Stalled as {!solve}. *)
