(** Offline analysis of exported Chrome traces — the
    [aurix_contention obs analyze] engine.

    Loads one or more trace files written by {!Tracer.to_chrome_json}
    (client and daemon traces of the same request merge into one
    analysis, one process per file), rebuilds the span forest per
    (process, thread) lane from interval containment, and reports:
    per-stage latency breakdown (experiments / lint / solve / sim /
    disk / …), a per-span-name table (calls, total and self time),
    critical path, top-N slowest requests, cache effectiveness from
    hit/miss instants, and trace-id connectivity across processes. *)

type node = {
  name : string;
  ts : float;  (** µs *)
  dur : float;  (** µs; [0.] for instants *)
  pid : int;  (** 1-based input-file index *)
  tid : int;
  trace : string;  (** [""] when the event carried no trace id *)
  attrs : (string * string) list;
  instant : bool;
  mutable children : node list;
}

type t = {
  processes : (int * string) list;  (** pid -> input label *)
  roots : node list;
  spans : node list;
  instants : node list;
}

val of_string : ?label:string -> string -> (t, string) result
val of_strings : (string * string) list -> (t, string) result
(** [(label, content)] per trace file; files become processes 1, 2, … in
    input order. Total: malformed JSON or a missing [traceEvents] array
    is [Error _]. *)

val stage_of_name : string -> string
(** The stage bucket a span name classifies into ([experiments] for the
    experiment drivers' [figure4.*], [ablations.*] and [integration.*]
    spans, [workload], [lint], [solve], [sim], [disk], [audit], [cache],
    [serve], [client], [pool] or [other]; the cell stages' [cell.*] spans
    go to the stage of their work). *)

type stage_stat = {
  stage : string;
  stage_spans : int;
  stage_self_us : float;
      (** span time net of child spans, so stages sum to traced wall time *)
}

val stages : t -> stage_stat list
(** Sorted by self time descending. *)

type span_stat = {
  span_name : string;
  calls : int;  (** spans recorded under this name *)
  total_us : float;  (** summed durations, children included *)
  span_self_us : float;  (** summed self time: net of child spans *)
}

val span_table : t -> span_stat list
(** One row per span name, sorted by self time descending (ties by
    name). Self times over all rows sum to the report's span time. *)

val critical_path : t -> node list
(** Root-to-leaf chain through the slowest child at every level of the
    slowest root span; [[]] when the trace has no spans. *)

val requests : t -> node list
(** [serve.request] / [client.rpc] spans, slowest first. *)

type cache_stat = {
  cache : string;
  outcomes : (string * int) list;
  hit_rate : float option;
}

val caches : t -> cache_stat list
(** Aggregated from [cache.<name>.<outcome>] and [disk.<outcome>]
    instants, sorted by cache name. *)

type trace_stat = {
  trace_id : string;
  pids : int list;
  trace_spans : int;
  trace_total_us : float;
}

val traces : t -> trace_stat list
(** Per-trace-id span totals (self time) and the set of processes each
    id appears in — a request whose client and daemon spans connect
    shows both pids here. Sorted by total time descending. *)

type sim_work = { sim_runs : int; sim_events : int; sim_skipped_events : int }

val sim_work : t -> sim_work option
(** Simulator runs and their kernel events — all of them, and those
    applied as whole skipped periods — summed from the [events] /
    [skipped_events] attributes of [tcsim.run] spans; [None] when the
    trace has no such span. *)

val report : ?top:int -> Format.formatter -> t -> unit
val report_string : ?top:int -> t -> string
(** The human-readable report ([top] bounds the request/trace lists,
    default 5). *)

val to_json : ?top:int -> t -> Json.t
