(** Integer linear programming by branch & bound over {!Simplex}.

    Exact rational relaxations plus integral branching give sound, optimal
    ILP solutions for the model sizes the contention analysis produces
    (tens of variables). *)

open Numeric

exception Node_limit_exceeded

val solve : ?node_limit:int -> ?slack:Q.t -> Model.t -> Solution.t
(** Solves the model enforcing integrality of its integer variables.
    [node_limit] (default [200_000]) bounds the number of explored
    branch-and-bound nodes.

    The search is warm-started: each child node re-optimises its
    parent's optimal basis with dual-simplex pivots
    ({!Simplex.ENGINE.reoptimize_certified}), the down child on a copy
    and the up child in place; it runs on the machine-word fast tier
    first and deterministically restarts on the exact tier on overflow,
    so the result never depends on which tier finished. Every node runs
    bound propagation ({!Presolve.Make}) first, on the tier's own
    scalar: it skips simplex on detectably-infeasible boxes. A child
    re-propagates only the rows its branched bound or its parent's
    round cap left dirty, with the result of a full sweep.

    [slack] (default 0 — exact) relaxes pruning: nodes that cannot improve
    on the incumbent by more than [slack] are abandoned, so the returned
    objective is within [slack] of the true optimum. A caller that needs a
    sound {e upper} bound on a maximisation must add [slack] to the
    returned objective. Useful when the relaxation has wide near-optimal
    plateaus (the Scenario-2 contention ILPs).

    The search is depth-first on the calling domain; concurrent solves
    of different models are independent.
    @raise Invalid_argument on negative [slack].
    @raise Node_limit_exceeded if the search does not finish in the
    budget — a safety net; the paper's instances take a handful of nodes.
    @raise Simplex.Stalled on a solver bug. *)

val solve_certified :
  ?node_limit:int -> ?slack:Q.t -> Model.t -> Solution.t * Cert.t
(** {!solve}, additionally emitting a search-tree certificate that
    {!Audit.Checker} (an independent exact checker) can replay against
    the model. The certified search runs without presolve so that node
    boxes are derivable from the declared bounds plus the branching
    path; the answer is identical to
    [solve ~node_limit ~slack] (presolve only skips work, it never
    changes results — pinned by a qcheck property).
    @raise Invalid_argument on negative [slack].
    @raise Node_limit_exceeded as {!solve}.
    @raise Simplex.Stalled as {!solve}. *)

val solve_lp_relaxation : Model.t -> Solution.t
(** The continuous relaxation (same as {!Simplex.solve}); exposed for
    tightness comparisons. *)
