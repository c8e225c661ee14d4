(** Multi-contender extension (paper Section 2: "this model can be easily
    extended to consider more contenders at the same time").

    With per-target round-robin arbitration, a request of the task under
    analysis can wait for at most one in-flight request of {e each} other
    master, so worst-case interference is additive over contenders: one
    ILP-PTAC instance per contender, summed. *)

open Platform

type result = {
  delta : int;  (** total Δcont over all contenders *)
  per_contender : Ilp_ptac.result list;  (** in input order *)
}

val solve :
  ?options:Ilp_ptac.options ->
  (Ilp.Model.t * (string -> Ilp.Model.var)) list ->
  result option
(** {!Ilp_ptac.solve} of each contender's model, in order; [None] as soon
    as one is infeasible. *)

val contention_bound :
  ?options:Ilp_ptac.options ->
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  contenders:Counters.t list ->
  unit ->
  result option
(** {!solve} of one {!Ilp_ptac.build_model} per contender. *)

val pp : Format.formatter -> result -> unit
