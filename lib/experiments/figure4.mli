(** Figure 4 reproduction: model predictions w.r.t. execution in isolation.

    For each deployment scenario and contender load level, one
    {!Cell.run}:
    + run the application and the contender in isolation, collecting debug
      counters (the only model inputs a real DSU provides);
    + compute the fTC bound (Eq. 8) and the ILP-PTAC bound (Eq. 9 optimum)
      as WCET estimates over the isolation time;
    + co-run application and contender and check both estimates
      upper-bound the observed multicore execution time (the paper's "In
      all experiments our model predictions upperbound the observed
      multicore execution time"). *)

type row = {
  scenario : string;
  load : Workload.Load_gen.level;
  isolation_cycles : int;
  observed_cycles : int;  (** co-run execution time of the application *)
  ftc : Mbta.Wcet.t;
  ilp : Mbta.Wcet.t;
  ideal_delta : int;
      (** Eq. 1 on ground-truth profiles (simulator-only reference) *)
}

val run_row :
  ?config:Tcsim.Machine.config ->
  scenario:Platform.Scenario.t ->
  load:Workload.Load_gen.level ->
  unit ->
  row
(** One {!Cell.bundled} cell: {!Cell.run} with the co-run. *)

val paper_cells : (Platform.Scenario.t * Workload.Load_gen.level) list
(** Both paper scenarios, H-, M- then L-Load each. *)

val run_scenario :
  ?config:Tcsim.Machine.config -> ?jobs:int -> Platform.Scenario.t -> row list
(** H-, M-, L-Load rows for one scenario: {!run_row} mapped over the
    loads on a [jobs]-wide pool (default {!Runtime.Pool.default_jobs});
    rows come back in load order regardless. *)

val run_all : ?config:Tcsim.Machine.config -> ?jobs:int -> unit -> row list
(** Both paper scenarios, all three loads: {!run_row} mapped over the six
    cells on a [jobs]-wide pool. The row order (scenario-major, then
    H/M/L) — and every byte of the rows — is independent of [jobs]. *)

val sound : row -> bool
(** Do both model estimates cover the observed co-run time? *)

val pp_rows : Format.formatter -> row list -> unit
