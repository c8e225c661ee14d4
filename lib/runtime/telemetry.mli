(** Per-run execution statistics for the parallel pipelines.

    A record of what one timed region did: how many pool tasks ran, how
    the ILP solve cache behaved, and wall-clock vs. process CPU time.
    [cpu_s / wall_s] approaches the effective parallel speedup on an
    otherwise idle machine; [cache_hits] counts solves the cache elided. *)

type t = {
  jobs : int;  (** configured concurrency degree of the run *)
  tasks : int;  (** pool tasks executed inside the region *)
  wall_s : float;  (** elapsed wall-clock seconds *)
  cpu_s : float;  (** process CPU seconds, all domains *)
  cache_hits : int;
  cache_misses : int;  (** {!Solve_cache} activity inside the region *)
  cache_raw_hits : int;  (** hits on the exact same model *)
  cache_canonical_hits : int;
      (** hits on a structural twin ({!Ilp.Canonical} dedup) *)
  cache_waited : int;  (** single-flight blockers (jobs > 1 artifact) *)
  run_cache_hits : int;
  run_cache_misses : int;  (** {!Run_cache} activity inside the region *)
}

val measure : jobs:int -> (unit -> 'a) -> 'a * t
(** [measure ~jobs f] runs [f ()] and reports what happened around it.
    [jobs] is only recorded, not enforced — pass what the region used. *)

val cache_hit_rate : t -> float
(** [cache_hits / (cache_hits + cache_misses)] in [0, 1]; [0.] when the
    region performed no cached solves at all. *)

val raw_hit_rate : t -> float
(** [cache_raw_hits / (cache_hits + cache_misses)]. Every hit counts in
    exactly one of the raw/canonical classes — waiters are not a third
    class (a waiter is a parallel-timing artifact; at jobs=1 it would
    have settled as one of the two), so the breakdown never
    double-counts them and is identical at any parallel degree. *)

val canonical_hit_rate : t -> float
(** Same denominator as {!raw_hit_rate}, counting only hits served by a
    structural twin. The two rates plus the miss rate sum to 1. *)

val run_cache_hit_rate : t -> float
(** [run_cache_hits / (run_cache_hits + run_cache_misses)] in [0, 1];
    [0.] when the region performed no memoized simulator runs. *)

val pp : Format.formatter -> t -> unit
(** One line: jobs, tasks, wall/cpu seconds, cache hits/misses, the
    raw/canonical breakdown rates, and the waiter count when non-zero. *)
