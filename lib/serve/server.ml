type addr = Unix_path of string | Tcp of { host : string; port : int }

let pp_addr fmt = function
  | Unix_path p -> Format.fprintf fmt "unix:%s" p
  | Tcp { host; port } -> Format.fprintf fmt "tcp:%s:%d" host port

let m_connections = Obs.Metrics.counter "serve.connections"

(* Connection handlers still running, in every server of the process:
   how many connections are open is a fact of the host's timing *)
let m_live = Obs.Metrics.gauge ~timing:true "serve.connections.live"

module J = Obs.Json

let addr_string addr = Format.asprintf "%a" pp_addr addr

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } ->
    Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

(* A bounded line reader: reads the socket a chunk at a time and keeps
   at most [limit + 1] bytes of a line. A longer line comes back cut to
   that many, as soon as they have arrived — the engine rejects it as
   oversize — and the rest of it, through its newline, is skipped by the
   next read. A client that never sends a newline so costs a bounded
   buffer, not unbounded memory. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;
  mutable stop : int;
  mutable skipping : bool;
  line : Buffer.t;
}

let reader fd =
  { fd; chunk = Bytes.create 65536; pos = 0; stop = 0; skipping = false;
    line = Buffer.create 1024 }

(* false at end of input; a reset connection ends it too *)
let rec refill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | n ->
    r.pos <- 0;
    r.stop <- n;
    n > 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error _ -> false

let rec newline_from r i =
  if i < r.stop && Bytes.unsafe_get r.chunk i <> '\n' then
    newline_from r (i + 1)
  else i

let take_line r =
  let s = Buffer.contents r.line in
  Buffer.clear r.line;
  Some s

(* The next line without its newline, [None] at end of input. Like
   [input_line], a last line without a newline is still returned. *)
let rec read_line r ~limit =
  if r.pos >= r.stop && not (refill r) then
    if r.skipping || Buffer.length r.line = 0 then None else take_line r
  else
    let nl = newline_from r r.pos in
    if r.skipping then begin
      r.skipping <- nl = r.stop;
      r.pos <- min (nl + 1) r.stop;
      read_line r ~limit
    end
    else begin
      let room = max 0 (limit + 1 - Buffer.length r.line) in
      let take = min (nl - r.pos) room in
      Buffer.add_subbytes r.line r.chunk r.pos take;
      if Buffer.length r.line > limit then begin
        r.pos <- r.pos + take;
        r.skipping <- true;
        take_line r
      end
      else if nl < r.stop then begin
        r.pos <- nl + 1;
        take_line r
      end
      else begin
        r.pos <- r.stop;
        read_line r ~limit
      end
    end

(* Serve one connection: read request lines, write response lines. Any
   I/O error (client hung up mid-line, EPIPE on reply) just ends the
   connection — the daemon never dies with a client. *)
let handle_connection engine stop fd =
  let r = reader fd in
  let limit = Engine.max_request_bytes engine in
  let oc = Unix.out_channel_of_descr fd in
  Obs.Metrics.incr m_connections;
  Obs.Log.debug "serve.connection";
  let rec loop () =
    match read_line r ~limit with
    | None -> ()
    | Some line ->
      if not (Atomic.get stop) then begin
        let reply, continue =
          match Engine.handle_line engine line with
          | `Reply r -> (r, true)
          | `Stop r ->
            Atomic.set stop true;
            (r, false)
        in
        output_string oc reply;
        output_char oc '\n';
        flush oc;
        if continue then loop ()
      end
  in
  (try loop ()
   with e ->
     (* the daemon never dies with a client, but the failure is no
        longer silent *)
     Obs.Log.warn "serve.connection_error"
       ~fields:(fun () -> [ ("exn", J.Str (Printexc.to_string e)) ]));
  (try Unix.close fd with _ -> ())

let serve ~engine ~addr ?(backlog = 16) ?(stop = Atomic.make false)
    ?on_ready () =
  (match Sys.os_type with
   | "Unix" -> ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   | _ -> ());
  let sockaddr = sockaddr_of addr in
  let domain = Unix.domain_of_sockaddr sockaddr in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (match addr with
   | Unix_path p when Sys.file_exists p -> (try Unix.unlink p with _ -> ())
   | _ -> ());
  Unix.bind sock sockaddr;
  Unix.listen sock backlog;
  Obs.Log.info "serve.listening"
    ~fields:(fun () -> [ ("addr", J.Str (addr_string addr)) ]);
  (match on_ready with Some f -> f addr | None -> ());
  (* a count, not the handlers' threads: a long-lived daemon keeps
     nothing per finished connection *)
  let lock = Mutex.create () and idle = Condition.create () and live = ref 0 in
  let count d =
    Mutex.protect lock (fun () ->
        live := !live + d;
        if !live = 0 then Condition.broadcast idle);
    Obs.Metrics.gauge_add m_live d
  in
  let handle fd =
    Fun.protect ~finally:(fun () -> count (-1)) (fun () -> handle_connection engine stop fd)
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ sock ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ :: _, _, _ -> (
         match Unix.accept sock with
         | fd, _ -> (
           count 1;
           try ignore (Thread.create handle fd)
           with e ->
             count (-1);
             (try Unix.close fd with _ -> ());
             raise e)
         | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
        (try Unix.close sock with _ -> ());
        Mutex.protect lock (fun () ->
            while !live > 0 do
              Condition.wait idle lock
            done);
        Obs.Log.info "serve.stopped"
          ~fields:(fun () -> [ ("addr", J.Str (addr_string addr)) ]);
        match addr with
        | Unix_path p -> ( try Unix.unlink p with _ -> ())
        | Tcp _ -> ())
    accept_loop
