(** The evaluation workload of the paper (Section 4.2): an application
    mimicking an automotive cruise-control loop — per period it acquires
    input signals, runs a computation over two medium-size data structures
    and publishes a status update — plus the co-runner benchmarks derived
    from the same deployment.

    Each program is generated for one of the two deployment variants of
    Figure 3:
    - {!S1}: code in scratchpad + cacheable pf0/pf1, shared data
      non-cacheable in the LMU;
    - {!S2}: code in scratchpad + cacheable pf0/pf1, data in the LMU (both
      cacheable and non-cacheable) and cacheable constants in pf0/pf1. *)

type variant = S1 | S2

type params = {
  iterations : int;  (** control periods *)
  signal_words : int;  (** per-period sensor words read from LMU (n$) *)
  state_words : int;  (** per-period status words written to LMU (n$) *)
  table_walk : int;  (** per-period accesses over the shared tables *)
  code_lines : int;  (** compute-code lines (32 B each) split over pf0/pf1 *)
  compute_per_line : int;  (** execution cycles per compute-code line *)
  local_compute : int;  (** per-period scratchpad-only compute cycles *)
  cache_data_lines : int;  (** S2: cacheable LMU working-set lines *)
  const_lines : int;  (** S2: cacheable constant lines in pf0/pf1 *)
  lmu_region : int;  (** byte offset of this task's LMU window *)
  pf_region : int;  (** byte offset of this task's code in each pf bank *)
  seed : int;
}

val default_params : params
(** Tuned so that, in isolation, stalls are a realistic fraction of
    execution time and Scenario-2 cacheable working sets fit the data cache
    (cold misses only — the paper's DMD = 0, small DMC signature). *)

val build : variant -> params -> Tcsim.Program.t
(** Generator shared by the application and the co-runners; a fresh
    program on every call (the way to build from custom parameters).
    @raise Invalid_argument if the memory windows overflow their target
    (e.g. LMU footprint beyond 32 KiB). *)

val app : variant -> Tcsim.Program.t
(** The application under analysis, [default_params], task windows at
    offset 0. One shared value per variant: built on the first request
    (from any domain) and returned physically equal ever after. *)

val shared :
  Tcsim.Program.t option Atomic.t -> (unit -> Tcsim.Program.t) -> Tcsim.Program.t
(** [shared cell build] is the program published in [cell], building it
    with [build] and publishing it by compare-and-set on the first
    request. Concurrent first requests may each build; all get the one
    that was published. How {!app} and {!Load_gen.make} share theirs. *)

val app_input_variants : variant -> n:int -> Tcsim.Program.t list
(** [n] builds of the application whose data-dependent access patterns
    differ (distinct generator seeds) — the input sweep an MBTA campaign
    measures before taking the high-water mark.
    @raise Invalid_argument if [n < 1]. *)

val variant_of_scenario : Platform.Scenario.t -> variant
(** Maps [scenario1]/[scenario2] (and [unrestricted], treated as S1).*)

val pp_params : Format.formatter -> params -> unit
