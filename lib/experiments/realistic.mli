(** Realistic use-case study (paper Section 4.2, closing remark): on
    production-style automotive tasks — scratchpad-resident code with
    frame-boundary shared-memory I/O — the contention bounds drop to
    around 10% of the isolation time, against the 30–40% the stress
    benchmark exhibits.

    The study analyses the {!Workload.Engine_control} task against the
    H-Load co-runner under Scenario 1 tailoring and reports both bounds
    next to the stress application's, plus the observed co-run check. *)

type result = {
  isolation_cycles : int;
  observed_cycles : int;
  ftc : Mbta.Wcet.t;
  ilp : Mbta.Wcet.t;
  stress_ilp_ratio : float;
      (** the stress application's H-Load ILP ratio, for comparison *)
}

val run : ?config:Tcsim.Machine.config -> ?jobs:int -> unit -> result
(** The engine-control cell ({!Cell.run} with the co-run) and the stress
    reference row are independent pool cells ([jobs] defaults to
    {!Runtime.Pool.default_jobs}). *)

val sound : result -> bool
val pp : Format.formatter -> result -> unit
