(** Priority-class study (extension; cf. paper Section 2, which scopes the
    models to the same-class configuration).

    The application runs against two co-runners twice: once with all
    masters in one SRI priority class (the paper's setup, round-robin) and
    once with the application alone in a more urgent class. The study
    compares the observed slowdowns and the matching bounds: the summed
    per-contender ILP bound for the same-class run, the
    {!Contention.Priority} blocking bound — independent of the number of
    contenders — for the prioritised run. *)

type result = {
  scenario : string;
  isolation_cycles : int;
  observed_same_class : int;
  observed_prioritised : int;
  multi_ilp_bound : int option;  (** covers the same-class run *)
  blocking_bound : int;  (** covers the prioritised run *)
  max_wait_same_class : int;  (** worst per-request arbitration delay *)
  max_wait_prioritised : int;
}

val run : ?scenario:Platform.Scenario.t -> ?jobs:int -> unit -> result
(** The three isolation runs and the pair of arbitration co-runs are
    one pool batch ([jobs] defaults to {!Runtime.Pool.default_jobs}). *)

val sound : result -> bool
val pp : Format.formatter -> result -> unit
