(** Process-wide metrics registry: named counters, gauges and fixed-bucket
    histograms, safe to update concurrently from {!Runtime.Pool} workers.

    The registry is one flat namespace. Registration is idempotent —
    calling {!counter}/{!gauge}/{!histogram} with an already-registered
    name returns the existing instance — so instrumented modules create
    their handles once at module initialisation and update them with
    plain atomic operations afterwards.

    {b Determinism.} Counters and gauges hold values derived from the
    simulated platform or the solver search (cycle counts, nodes,
    pivots, cache hits): with the single-flight {!Runtime.Solve_cache}
    their totals are independent of the parallel degree, and
    {!deterministic_snapshot} exposes exactly this jobs-invariant subset.
    Histograms record host timing (task latency, queue wait) and are the
    only part of a snapshot allowed to differ between runs — except for
    counters/gauges registered with [~timing:true] (tcsim's script-memo
    and solo-skip counters), which depend on the cache state or the
    schedule of one particular run and are likewise excluded from
    {!deterministic_snapshot}. *)

type counter
type gauge
type histogram

val counter : ?timing:bool -> string -> counter
(** Registers (or retrieves) the counter [name]. [~timing:true]
    (default [false]) marks the counter as a host-timing fact whose
    value may depend on the parallel degree; such counters appear in
    {!snapshot} and {!to_prometheus} but not in
    {!deterministic_snapshot}. The flag is fixed by the first
    registration of a name.
    @raise Invalid_argument if [name] is bound to another metric kind. *)

val gauge : ?timing:bool -> string -> gauge
val histogram : buckets:float array -> string -> histogram
(** [buckets] are strictly increasing inclusive upper bounds; one
    overflow bucket is added implicitly after the last edge.
    @raise Invalid_argument on empty or non-increasing edges, or on a
    kind clash with an existing registration. *)

val latency_buckets : float array
(** Log-spaced seconds from 1µs to 10s — the default edges for task and
    queue-wait latencies. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** Lock-free monotonic maximum (compare-and-set loop). *)

val gauge_value : gauge -> int

val observe : histogram -> float -> unit
(** Adds one observation: the first bucket whose edge is [>=] the value
    counts it; values above the last edge land in the overflow bucket. *)

type histogram_snapshot = {
  edges : float array;
  counts : int array;  (** per-bucket counts; last slot is the overflow *)
  count : int;
  sum : float;
  min : float;  (** [0.] while empty *)
  max : float;  (** [0.] while empty *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

val snapshot : unit -> snapshot
(** Consistent-enough point-in-time copy, each section sorted by name.
    Taken while workers run, each individual value is atomic but the
    set is not a global cut — take snapshots around quiesced regions. *)

val deterministic_snapshot : unit -> (string * int) list
(** Counters and gauges only (name-sorted), excluding those registered
    with [~timing:true] — the subset whose values are independent of the
    parallel degree; the jobs=1 vs jobs=4 suites compare exactly this. *)

val reset : unit -> unit
(** Zeroes every value; registrations (names, kinds, bucket edges)
    survive. *)

val hist_to_json : histogram_snapshot -> Json.t
(** [{"count", "sum", "min", "max", "buckets": [{"le","count"}…],
    "overflow"}] — the daemon's stats payload embeds the per-stage
    latency histograms with this. *)

val to_json_value : unit -> Json.t
(** [{"counters": {..}, "gauges": {..}, "timing": {..},
    "histograms": {..}}]. Counters/gauges registered [~timing:true]
    appear under ["timing"], so the ["counters"] and ["gauges"]
    sections stay identical for every parallel degree. *)

val to_json : unit -> string

val to_prometheus : unit -> string
(** Prometheus text exposition of the whole registry, metrics in sorted
    name order: [aurix_]-prefixed names with dots mapped to underscores,
    counters/gauges as single samples, histograms as cumulative
    [_bucket{le="…"}] series plus [_sum]/[_count]. Served by the
    daemon's [stats] request for scrape-style collection. *)

val pp : Format.formatter -> unit -> unit
