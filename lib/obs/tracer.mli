(** Nestable timed spans with a ring-buffer sink and Chrome
    [trace_event] export.

    Disabled by default: {!with_span} then degrades to one atomic load
    around the thunk — no clock reads, no attribute rendering — so
    instrumentation can stay in hot paths (one span per branch-and-bound
    node) without a measurable cost. {!enable} installs a process-wide
    fixed-capacity ring; once full, the oldest events are overwritten
    and counted in {!dropped} (and on the [obs.trace.dropped] metrics
    counter). Events are recorded at span {e end}, so long-running
    enclosing spans survive eviction even when their leaf children churn
    the ring.

    Spans nest per domain (depth is tracked in domain-local storage), so
    spans opened inside {!Runtime.Pool} workers nest under whatever that
    worker is running.

    {b Trace context.} {!with_trace} installs an ambient trace id for
    the dynamic extent of a thunk (per domain); every span and
    {!instant} recorded inside carries it, and the Chrome export writes
    it into the event's [args.trace]. The serve pipeline threads one
    trace id from the client through the daemon and its pool workers, so
    the events of one request form one connected tree across processes. *)

type kind = Span | Instant

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float;  (** span start, µs since {!enable} *)
  dur_us : float;  (** [0.] for instants *)
  tid : int;  (** domain id *)
  depth : int;  (** nesting depth at span start, 0 = top level *)
  seq : int;  (** global record order (= span end order) *)
  trace : string;  (** ambient trace id, [""] when none *)
  kind : kind;
}

val enable : ?capacity:int -> unit -> unit
(** Installs a fresh ring sink (default capacity 65536 events); any
    previously recorded events are gone.
    @raise Invalid_argument on [capacity < 1]. *)

val disable : unit -> unit
(** Back to the no-op sink. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Empties the ring without disabling. *)

val with_span :
  ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] under span [name]. The [attrs]
    thunk is evaluated only when tracing is enabled, {e after} [f]
    returns — it may read values [f] computed. Exceptions from [f] are
    re-raised after the span is recorded. *)

val instant : ?attrs:(unit -> (string * string) list) -> string -> unit
(** Records a zero-duration point event (cache hit, quarantine, …) at
    the current depth, carrying the ambient trace id. No-op while
    disabled. *)

val with_trace : string -> (unit -> 'a) -> 'a
(** [with_trace id f] runs [f] with [id] as the domain's ambient trace
    id, restoring the previous id afterwards (also on exceptions). Works
    whether or not the tracer is enabled — {!Log} reads the ambient id
    for correlation even without a ring. *)

val current_trace : unit -> string
(** The ambient trace id installed by the innermost {!with_trace} on
    this domain, [""] when none. *)

val events : unit -> event list
(** Retained events, oldest first. Empty when disabled. *)

val dropped : unit -> int
(** Events evicted by ring overflow since {!enable}/{!clear}. *)

val to_chrome_json_value : unit -> Json.t
val to_chrome_json : unit -> string
(** Chrome [trace_event] JSON (complete events, µs timestamps): load the
    file in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)
