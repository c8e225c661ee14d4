(** The measurement protocol of measurement-based timing analysis:
    run a task in isolation through the DSU-style counters (paper
    Section 4.2, "Metrics"): the analysis consumes only
    {!Platform.Counters} readings and the observed execution time.

    The ground-truth SRI profile is also captured — the real DSU cannot
    produce it (that is the paper's core problem), so the models must never
    consume it; tests use it to check the models' over-approximation. *)

open Platform

type observation = {
  counters : Counters.t;
  cycles : int;
  ground_truth : Access_profile.t;
      (** for validation only — not available from a real DSU *)
}

val isolation :
  ?config:Tcsim.Machine.config -> ?core:int -> Tcsim.Program.t -> observation
(** Run the task alone and read its counters (core defaults to 0). *)

val corun :
  ?config:Tcsim.Machine.config ->
  analysis:Tcsim.Program.t * int ->
  contenders:(Tcsim.Program.t * int) list ->
  ?restart_contenders:bool ->
  unit ->
  observation
(** Observed multicore execution of the analysis task (program, core)
    against contenders; used to check that model predictions upper-bound
    reality. By default contenders do {e not} restart: each contender's
    isolation readings then soundly cover everything it did during the
    run. *)

val isolation_sweep :
  ?config:Tcsim.Machine.config -> ?core:int -> Tcsim.Program.t list -> observation list
(** One isolation run per program variant — MBTA practice runs the task
    under several input vectors / paths and keeps the worst readings. *)

val high_water_mark : observation list -> observation
(** Pointwise maximum over a sweep: per-counter maxima, maximal execution
    time and the per-pair maxima of the ground-truth profiles. Feeding the
    contention models with per-counter maxima is the standard conservative
    MBTA composition: every model input dominates each observed run.
    @raise Invalid_argument on an empty list. *)
