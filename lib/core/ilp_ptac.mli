(** The ILP-PTAC contention model (paper Section 3.5, Eqs. 9–23, tailored
    per deployment scenario as in Table 5).

    The TC27x cannot measure per-target access counts (PTAC), so the model
    searches over {e every} PTAC assignment for both tasks that is
    consistent with the observed stall-cycle and cache-miss counters, and
    maximises the contention the contender can inflict — an integer linear
    program over:
    - [n^{t,o}_a], [n^{t,o}_b]: candidate per-target access counts;
    - [n^{t,o}_{b→a}]: interfering requests, bounded per target by both
      tasks' traffic to that target (Eqs. 10–19) and charged [l^{t,o}]
      cycles each in the objective (Eq. 9).

    Dropping the contender-side consistency constraints (Eqs. 22–23) makes
    the bound fully time-composable again (the paper's remark after
    Eq. 23); keeping them yields the partially time-composable bound that
    adapts to the contender's measured load.

    {b Stall-consistency encoding.} Eqs. 20–23 are stated as equalities
    [Σ_t n^{t,o} · cs^{t,o} = stall^o] with [cs^{t,o}] the {e minimum}
    stall per request. Real readings include requests that stalled longer
    than the minimum, so the literal equality can exclude the true counts
    (and clash with the exact PCACHE_MISS tailoring). The sound reading —
    and this implementation's default, {!Upper} — is
    [Σ_t n^{t,o} · cs^{t,o} <= stall^o + cs^o_{min} - 1], whose per-target
    relaxation reproduces exactly the ceiling bound of Eq. 4 and always
    contains the ground-truth assignment. {!Exact} and {!Window} implement
    the literal readings for comparison (see DESIGN.md). *)

open Platform

type equality_mode =
  | Exact  (** Eqs. 20–23 as literal equalities *)
  | Window  (** [stall <= Σ <= stall + cs_min - 1] *)
  | Upper  (** [Σ <= stall + cs_min - 1] (sound default) *)

type options = {
  equality_mode : equality_mode;
  use_contender_info : bool;
      (** keep Eqs. 22–23; [false] degrades to a fully time-composable
          ILP bound *)
  dirty_lmu : bool;
      (** charge LMU data interference at the dirty-miss latency *)
  tailor_contender : bool;
      (** apply the scenario's Table 5 constraints to the contender too
          (Section 4.1 assumes deployments apply to both tasks) *)
  node_limit : int;
  mip_slack : int;
      (** absolute branch-and-bound pruning slack in cycles: the search may
          stop within [mip_slack] of the ILP optimum, and the reported
          [delta] is compensated upward by the same amount (then capped by
          the LP relaxation), so it always upper-bounds the exact ILP
          value. Set 0 for exact solving. *)
}

val default_options : options
(** [{ equality_mode = Upper; use_contender_info = true; dirty_lmu = false;
      tailor_contender = true; node_limit = 2_000; mip_slack = 16 }] —
    the paper's instances solve within a handful of nodes; the budget only
    exists to trigger the sound LP fallback on adversarial inputs. *)

type result = {
  delta : int;
      (** sound upper bound on Δcont: the Eq. 9 optimum when [exact],
          otherwise optimum + [mip_slack] capped by the LP relaxation, or
          the LP relaxation itself if the node budget ran out *)
  interference : ((Target.t * Op.t) * int) list;  (** [n^{t,o}_{b→a}] *)
  a_counts : Access_profile.t;  (** worst-case consistent PTAC for τa *)
  b_counts : Access_profile.t;  (** worst-case consistent PTAC for τb *)
  exact : bool;
      (** [true] iff [delta] is the exact ILP optimum (requires
          [mip_slack = 0] and the search finishing within [node_limit]) *)
}

val build_model :
  ?options:options ->
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  b:Counters.t ->
  unit ->
  Ilp.Model.t * (string -> Ilp.Model.var)
(** The raw ILP (exposed for inspection and white-box tests). The second
    component resolves variable names: ["na_pf0_co"], ["nb_lmu_da"],
    ["nba_dfl_da"], … *)

val charges_dirty_lmu : Counters.t list -> bool
(** The [dirty_lmu] every analysis sets: does some contender's isolation
    reading show dirty misses (the only source of dirty write-backs)? *)

val solve :
  ?options:options -> Ilp.Model.t * (string -> Ilp.Model.var) -> result option
(** Solves a model {!build_model} built with the same [options] (only
    [node_limit] and [mip_slack] are read here). *)

val contention_bound :
  ?options:options ->
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  b:Counters.t ->
  unit ->
  result option
(** {!solve} of {!build_model}. [None] when the ILP is infeasible
    (possible under {!Exact}; never under {!Upper} with valid counters).
    Never raises on pathological inputs:
    if branch & bound exhausts [node_limit], the LP-relaxation optimum is
    returned instead (sound, marked [exact = false]). *)

val contention_bound_exn :
  ?options:options ->
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  b:Counters.t ->
  unit ->
  result
(** @raise Failure on infeasibility. *)

val pp_result : Format.formatter -> result -> unit
