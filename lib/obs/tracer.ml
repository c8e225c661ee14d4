(* Nestable timed spans with a ring-buffer sink.

   The tracer is disabled by default: [with_span] then runs its thunk
   with nothing but one atomic load and a closure — no clock reads, no
   attribute rendering, no allocation in the sink. Enabling installs a
   fixed-capacity ring protected by one mutex; when the ring is full the
   oldest events are overwritten (and counted), so long traces keep the
   most recent leaves plus the enclosing long spans, which are recorded
   at span *end* and therefore survive eviction.

   Nesting depth is tracked per domain through DLS, so spans recorded
   from Pool workers nest correctly within whatever that worker runs.

   A trace id can be installed ambiently per domain ([with_trace]): every
   span and instant recorded inside picks it up, which is what stitches a
   client request, the daemon's handling and the pool workers it fans out
   to into one logical trace across processes. *)

type kind = Span | Instant

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float; (* span start, microseconds since [enable] *)
  dur_us : float;
  tid : int; (* domain id *)
  depth : int; (* nesting depth at span start, 0 = top level *)
  seq : int; (* global record order (= span end order) *)
  trace : string; (* ambient trace id, "" when none *)
  kind : kind;
}

type sink = {
  capacity : int;
  buf : event array;
  mutable len : int;
  mutable head : int; (* index of the oldest retained event *)
  mutable next_seq : int;
  mutable n_dropped : int;
  lock : Mutex.t;
  t0 : float;
}

let dummy_event =
  { name = ""; attrs = []; ts_us = 0.; dur_us = 0.; tid = 0; depth = 0;
    seq = -1; trace = ""; kind = Span }

let m_dropped = Metrics.counter "obs.trace.dropped"

let current : sink option Atomic.t = Atomic.make None

let enable ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Tracer.enable: capacity must be >= 1";
  Atomic.set current
    (Some
       {
         capacity;
         buf = Array.make capacity dummy_event;
         len = 0;
         head = 0;
         next_seq = 0;
         n_dropped = 0;
         lock = Mutex.create ();
         t0 = Unix.gettimeofday ();
       })

let disable () = Atomic.set current None
let enabled () = Atomic.get current <> None

let clear () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    s.len <- 0;
    s.head <- 0;
    s.next_seq <- 0;
    s.n_dropped <- 0;
    Mutex.unlock s.lock

let record s e =
  Mutex.lock s.lock;
  let e = { e with seq = s.next_seq } in
  s.next_seq <- s.next_seq + 1;
  if s.len < s.capacity then begin
    s.buf.((s.head + s.len) mod s.capacity) <- e;
    s.len <- s.len + 1
  end
  else begin
    s.buf.(s.head) <- e;
    s.head <- (s.head + 1) mod s.capacity;
    s.n_dropped <- s.n_dropped + 1;
    Metrics.incr m_dropped
  end;
  Mutex.unlock s.lock

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

(* --- ambient trace context ---------------------------------------------- *)

let trace_key = Domain.DLS.new_key (fun () -> ref "")

let current_trace () = !(Domain.DLS.get trace_key)

let with_trace id f =
  let r = Domain.DLS.get trace_key in
  let old = !r in
  r := id;
  Fun.protect ~finally:(fun () -> r := old) f

let with_span ?attrs name f =
  match Atomic.get current with
  | None -> f ()
  | Some s ->
    let d = Domain.DLS.get depth_key in
    let depth = !d in
    d := depth + 1;
    let trace = current_trace () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      d := depth;
      record s
        {
          name;
          attrs = (match attrs with None -> [] | Some mk -> mk ());
          ts_us = (start -. s.t0) *. 1e6;
          dur_us = (stop -. start) *. 1e6;
          tid = (Domain.self () :> int);
          depth;
          seq = 0;
          trace;
          kind = Span;
        }
    in
    (match f () with
     | v ->
       finish ();
       v
     | exception e ->
       finish ();
       raise e)

let instant ?attrs name =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    let d = Domain.DLS.get depth_key in
    record s
      {
        name;
        attrs = (match attrs with None -> [] | Some mk -> mk ());
        ts_us = (Unix.gettimeofday () -. s.t0) *. 1e6;
        dur_us = 0.;
        tid = (Domain.self () :> int);
        depth = !d;
        seq = 0;
        trace = current_trace ();
        kind = Instant;
      }

let events () =
  match Atomic.get current with
  | None -> []
  | Some s ->
    Mutex.lock s.lock;
    let out = List.init s.len (fun i -> s.buf.((s.head + i) mod s.capacity)) in
    Mutex.unlock s.lock;
    out

let dropped () =
  match Atomic.get current with None -> 0 | Some s -> s.n_dropped

(* --- Chrome trace_event export ------------------------------------------ *)

let args_json e =
  let kvs = List.map (fun (k, v) -> (k, Json.Str v)) e.attrs in
  let kvs = if e.trace = "" then kvs else ("trace", Json.Str e.trace) :: kvs in
  Json.Obj kvs

let event_to_json e =
  match e.kind with
  | Span ->
    Json.Obj
      [
        ("name", Json.Str e.name);
        ("cat", Json.Str "aurix");
        ("ph", Json.Str "X");
        ("ts", Json.Float e.ts_us);
        ("dur", Json.Float e.dur_us);
        ("pid", Json.Int 1);
        ("tid", Json.Int e.tid);
        ("args", args_json e);
      ]
  | Instant ->
    Json.Obj
      [
        ("name", Json.Str e.name);
        ("cat", Json.Str "aurix");
        ("ph", Json.Str "i");
        ("ts", Json.Float e.ts_us);
        ("s", Json.Str "t");
        ("pid", Json.Int 1);
        ("tid", Json.Int e.tid);
        ("args", args_json e);
      ]

let to_chrome_json_value () =
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.List (List.map event_to_json (events ())));
    ]

let to_chrome_json () = Json.to_string (to_chrome_json_value ())
