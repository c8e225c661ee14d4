(** One analysis cell — a task under analysis and its contenders, each
    on its own core — through the paper's chain: lint, measure each task
    in isolation (and optionally the co-run), lint the debug counters,
    then bound the contention with fTC, ILP-PTAC and the ideal model.
    Every stage runs under a [cell.<stage>] span and returns its
    diagnostics and cycle-limit outcomes as values; the lint stages also
    record the [lint.<pass>.*] counters. *)

type t = {
  scenario : Platform.Scenario.t;
  config : Tcsim.Machine.config option;  (** [None]: the default machine *)
  app : Analysis.Program_lint.task;  (** the task under analysis *)
  contenders : Analysis.Program_lint.task list;
}

val task : string -> int -> Tcsim.Program.t -> Analysis.Program_lint.task
(** [task label core program]. *)

val bundled :
  ?config:Tcsim.Machine.config ->
  scenario:Platform.Scenario.t ->
  load:Workload.Load_gen.level ->
  unit ->
  t
(** Figure 4's cell: the scenario's control loop (label ["app"]) on core
    0, one [load] contender (label ["contender"]) on core 1. The programs
    are built on first request ([cell.programs] span), shared after. *)

val preflight : t -> Analysis.Diag.t list
(** {!Analysis.Preflight.check_run} over the app and the contenders. *)

type isolation = {
  iso_app : Mbta.Measurement.observation;
  iso_contenders : Mbta.Measurement.observation list;
}

type measured = {
  isolation : (isolation, string * exn) result;
      (** [Error (label, e)]: the first task whose isolation raised [e],
          e.g. {!Tcsim.Machine.Cycle_limit_exceeded} *)
  corun : (Mbta.Measurement.observation, exn) result option;
      (** [None] unless asked for and every isolation succeeded *)
}

val measure : ?corun:bool -> t -> measured
(** Each task alone on its core, then with [corun] (default [false]) all
    together, contenders not restarting. *)

val counter_lint : t -> isolation -> Analysis.Diag.t list
(** Table 4 invariants over each reading, at [["isolation"; label]]. *)

type models = {
  options : Contention.Ilp_ptac.options;
  per_contender : (Ilp.Model.t * (string -> Ilp.Model.var)) list;
}

val models :
  ?options:Contention.Ilp_ptac.options ->
  ?path:string list ->
  t ->
  isolation ->
  models * Analysis.Diag.t list
(** Each contender's ILP-PTAC model, built once from [options] (default
    {!Contention.Ilp_ptac.default_options}) with [dirty_lmu] set by
    {!Contention.Ilp_ptac.charges_dirty_lmu}, and its lint at [path]
    (default [["ilp-ptac"; scenario; label]]). *)

type bounds = {
  ftc : Contention.Ftc.result;
  ideal_delta : int;  (** Eq. 1 on ground truth, summed over contenders *)
  ilp : Contention.Multi.result option;
      (** [models] solved; [None] without them or if one is infeasible *)
}

val bounds : ?models:models -> t -> isolation -> bounds

type run = {
  readings : isolation;
  observed : Mbta.Measurement.observation option;  (** with [corun] only *)
  built : models;
  bounds : bounds;
}

val run : ?options:Contention.Ilp_ptac.options -> ?corun:bool -> t -> run
(** Every stage in order, the ILP-PTAC models solved as built.
    @raise Analysis.Preflight.Preflight_failed on a lint error.
    @raise Tcsim.Machine.Cycle_limit_exceeded if a run passes the cycle
    limit. *)
