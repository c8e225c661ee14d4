(** The fully time-composable (fTC) contention model (paper Section 3.4).

    Uses only the task-under-analysis' cumulative stall counters: every one
    of its [n̂^{co}] code requests is assumed delayed by the longest
    latency any co-runner request could inflict on a code-reachable target
    (Eq. 6), and likewise for data (Eq. 7):

    [Δcont = n̂^{co}_a · l^{co}_{max} + n̂^{da}_a · l^{da}_{max}]   (Eq. 8)

    The bound holds for {e any} contender behaviour — the price is the
    pessimism Figure 4 exhibits. *)

open Platform

type result = {
  delta : int;
  n_co : int;  (** [n̂^{co}_a] *)
  n_da : int;  (** [n̂^{da}_a] *)
  l_co_max : int;  (** Eq. 6 *)
  l_da_max : int;  (** Eq. 7 *)
}

val dirty_misses : Scenario.t -> bool
(** The [dirty] every analysis passes: [true] for Scenario 2, whose data
    is cacheable everywhere (paper Section 4.1). *)

val contention_bound :
  ?dirty:bool ->
  ?exact_code_count:int ->
  latency:Latency.t ->
  a:Counters.t ->
  unit ->
  result
(** [dirty] (default [false]): assume co-runner LMU data requests can carry
    dirty write-backs — the pessimistic assumption the paper calls out for
    Scenario 2. [exact_code_count] is the refined-fTC option of
    Section 4.1: when the deployment makes PCACHE_MISS exact, it replaces
    the stall-derived [n̂^{co}_a] (indirect PTAC information exploitable
    "limitedly to τa"). *)

val pp : Format.formatter -> result -> unit
