(** Threaded NDJSON socket server around an {!Engine}.

    One thread per connection; all connections share the engine (and
    through it the single-flight caches). The accept loop polls a stop
    flag via [select] with a short tick so a shutdown request — or a
    signal handler flipping the flag — wins within a fraction of a
    second without racing [accept] on a closed descriptor.

    Request lines are read a chunk at a time and never buffered past
    the engine's {!Engine.max_request_bytes}: a longer line is answered
    with an oversize reject as soon as the limit is passed, the rest of
    it is discarded through its newline, and the connection keeps
    serving. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

val pp_addr : Format.formatter -> addr -> unit

val serve :
  engine:Engine.t ->
  addr:addr ->
  ?backlog:int ->
  ?stop:bool Atomic.t ->
  ?on_ready:(addr -> unit) ->
  unit ->
  unit
(** Binds, listens, and blocks until [stop] becomes true (a protocol
    shutdown request sets it; callers may share the atomic with a signal
    handler). [on_ready] fires once the socket is listening — tests use
    it to release the client side. On return every connection handler
    has finished and a Unix-domain socket file is unlinked. The server
    counts its running handlers instead of keeping their threads; the
    timing-tier gauge [serve.connections.live] holds the handlers
    running in all servers of the process. SIGPIPE is
    ignored for the whole process (writes to a vanished client surface
    as [EPIPE] and close that connection only). *)
