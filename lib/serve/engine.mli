(** The daemon's request engine: admission control, model dispatch, and
    the three-tier cache (per-query single-flight table, then the
    process-wide {!Runtime.Run_cache}/{!Runtime.Solve_cache}, then the
    persistent {!Disk_cache}).

    The engine is transport-agnostic — {!handle_line} maps one request
    line to one response line, and the socket {!Server} (or a test)
    supplies the framing. It is safe to call from many threads at once;
    duplicate in-flight queries compute once and everyone else waits
    (single-flight), so results and cache counters are identical at any
    parallel degree. *)

type config = {
  jobs : int option;
      (** simulation parallelism: the width of the engine's pool;
          [None] means {!Runtime.Pool.default_jobs} *)
  max_request_bytes : int;  (** admission: longer lines are rejected *)
  max_program_size : int;  (** admission: larger inline programs rejected *)
  disk : Disk_cache.t option;  (** persistent tier; [None] = memory only *)
  persist_runtime_caches : bool;
      (** also back {!Runtime.Run_cache}/{!Runtime.Solve_cache} with the
          disk tier (namespaces "run"/"solve"), so even the first query
          after a restart replays simulations and solves from disk *)
}

val default_config : config
(** [jobs = None] (inherit [AURIX_JOBS]), 1 MiB request cap, 65536
    instructions, no disk tier. *)

type t

val create : config -> t
(** Installs the runtime-cache backing stores when configured — these
    are process-wide, so run one engine per process (tests that create
    several engines must not enable [persist_runtime_caches] on more
    than the active one). Also creates the engine's dispatch pool, so
    domains are spawned once here, not per request. *)

val close : t -> unit
(** Uninstalls the runtime-cache backing stores and shuts down the
    engine's pool. *)

val max_request_bytes : t -> int
(** The configured line limit, for a transport that bounds its reads. *)

type stats = {
  served : int;  (** analyze requests answered with a result *)
  rejected : int;
  computed : int;  (** results produced by simulation/solving *)
  memory_hits : int;  (** results replayed from the in-process table *)
  disk_hits : int;  (** results replayed from the persistent tier *)
}

val stats : t -> stats

val digest : Protocol.analyze -> string
(** The query's content address (hex): the MD5 of the request's wire
    encoding with the correlation id and trace context blanked, so
    identical analyses share one cache entry regardless of id or
    tracing. The encoding carries the protocol version, so a wire bump
    moves every address; entries under older addresses read as
    misses. *)

val stats_payload : t -> Obs.Json.t
(** The rich introspection object carried by stats replies: uptime,
    in-flight gauge, engine counters, per-cache occupancy and hit/miss
    splits, audit verdict totals, per-stage latency histograms, recent
    rejects and a Prometheus text exposition. All sections except
    [uptime_s], [in_flight], [stages] and [prometheus] are
    jobs-invariant. *)

val analyze : t -> Protocol.analyze -> Protocol.response
(** Admission, then the cache tiers; a computed query runs the
    {!Experiments.Cell} stages, as Figure 4's row does, each under its
    [serve.stage.*] timer, and maps their failures to rejects. *)

val handle_line : t -> string -> [ `Reply of string | `Stop of string ]
(** One request line to one response line; [`Stop] carries the
    acknowledgement for a shutdown request. A line over
    {!max_request_bytes} is rejected as oversize unread, so a transport
    may pass just its first [max_request_bytes + 1] bytes. Never
    raises. *)
