open Platform
module P = Protocol
module Cell = Experiments.Cell

type config = {
  jobs : int option;
  max_request_bytes : int;
  max_program_size : int;
  disk : Disk_cache.t option;
  persist_runtime_caches : bool;
}

let default_config =
  {
    jobs = None;
    max_request_bytes = 1 lsl 20;
    max_program_size = 65536;
    disk = None;
    persist_runtime_caches = false;
  }

type t = {
  config : config;
  pool : Runtime.Pool.t;
      (* persistent dispatch pool: domains are spawned once at engine
         creation, not per request *)
  table : P.analyze_result Runtime.Single_flight.t;
      (* query-level single-flight, like the runtime caches one layer
         down; only successful results settle — rejects are not cached
         (a lint reject is cheap to re-derive and callers may retry with
         a fixed request) *)
  stores_installed : bool;
  created_at : float;
  served : int Atomic.t;
  rejected : int Atomic.t;
  computed : int Atomic.t;
  memory_hits : int Atomic.t;
  disk_hits : int Atomic.t;
  (* last few rejects, newest first, for the stats payload *)
  recent_rejects : (string option * P.reject_code * string) list ref;
  rejects_lock : Mutex.t;
}

let recent_rejects_kept = 8

type stats = {
  served : int;
  rejected : int;
  computed : int;
  memory_hits : int;
  disk_hits : int;
}

let m_requests = Obs.Metrics.counter "serve.requests"
let m_rejects = Obs.Metrics.counter "serve.rejects"
let m_computed = Obs.Metrics.counter "serve.query.computed"
let m_memory_hits = Obs.Metrics.counter "serve.query.memory_hits"
let m_disk_hits = Obs.Metrics.counter "serve.query.disk_hits"

let m_latency =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets "serve.latency_s"

let g_in_flight = Obs.Metrics.gauge "serve.in_flight"

(* Per-stage latency histograms, mirrored by spans of the same name so
   live scrapes and offline traces attribute time the same way. *)
let h_stage_lint =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets
    "serve.stage.lint_s"

let h_stage_isolation =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets
    "serve.stage.isolation_s"

let h_stage_bounds =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets
    "serve.stage.bounds_s"

let h_stage_corun =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets
    "serve.stage.corun_s"

let stage name h f =
  Obs.Tracer.with_span name (fun () ->
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
            Obs.Metrics.observe h (Unix.gettimeofday () -. t0))
        f)

let runtime_store disk ~ns =
  {
    Runtime.Run_cache.load = (fun key -> Disk_cache.load disk ~ns ~key);
    save = (fun key value -> Disk_cache.store disk ~ns ~key value);
  }

let solve_store disk ~ns =
  {
    Runtime.Solve_cache.load = (fun key -> Disk_cache.load disk ~ns ~key);
    save = (fun key value -> Disk_cache.store disk ~ns ~key value);
    reject = (fun key -> Disk_cache.reject disk ~ns ~key);
  }

let create config =
  let stores_installed =
    match config.disk with
    | Some disk when config.persist_runtime_caches ->
      Runtime.Run_cache.set_store (Some (runtime_store disk ~ns:"run"));
      Runtime.Solve_cache.set_store (Some (solve_store disk ~ns:"solve"));
      true
    | _ -> false
  in
  {
    config;
    pool = Runtime.Pool.create ?jobs:config.jobs ();
    table = Runtime.Single_flight.create ();
    stores_installed;
    created_at = Unix.gettimeofday ();
    served = Atomic.make 0;
    rejected = Atomic.make 0;
    computed = Atomic.make 0;
    memory_hits = Atomic.make 0;
    disk_hits = Atomic.make 0;
    recent_rejects = ref [];
    rejects_lock = Mutex.create ();
  }

let close t =
  if t.stores_installed then begin
    Runtime.Run_cache.set_store None;
    Runtime.Solve_cache.set_store None
  end;
  Runtime.Pool.shutdown t.pool

let max_request_bytes t = t.config.max_request_bytes

let stats (t : t) : stats =
  {
    served = Atomic.get t.served;
    rejected = Atomic.get t.rejected;
    computed = Atomic.get t.computed;
    memory_hits = Atomic.get t.memory_hits;
    disk_hits = Atomic.get t.disk_hits;
  }

let stats_alist t =
  let s = stats t in
  [
    ("served", s.served);
    ("rejected", s.rejected);
    ("computed", s.computed);
    ("memory_hits", s.memory_hits);
    ("disk_hits", s.disk_hits);
  ]

(* The content address is the wire rendering with both the correlation
   id and the trace context blanked: identical analyses share one cache
   entry regardless of who asked or how they were traced. The rendering
   carries ["v"], so a wire bump moves every key by itself. *)
let digest (q : P.analyze) =
  Digest.to_hex
    (Digest.string
       (P.encode_request (P.Analyze { q with id = ""; trace = None })))

(* --- admission + dispatch ----------------------------------------------- *)

let reject ?id code message diagnostics =
  P.Reject { xid = id; code; message; diagnostics }

exception Rejected of P.response

let rejectf ?id ?(diagnostics = []) code fmt =
  Format.kasprintf
    (fun message -> raise (Rejected (reject ?id code message diagnostics)))
    fmt

let build_program ~id ~max_size (spec : P.program_spec) =
  match Tcsim.Program.make ~name:spec.pname spec.pitems with
  | p ->
    if Tcsim.Program.static_size p > max_size then
      rejectf ~id P.Oversize
        "program %S has %d instructions (limit %d)" spec.pname
        (Tcsim.Program.static_size p) max_size
    else p
  | exception Invalid_argument msg ->
    rejectf ~id P.Invalid "invalid program %S: %s" spec.pname msg

let guard_lint ~id ~pass diags =
  if Analysis.Diag.has_errors diags then
    rejectf ~id ~diagnostics:diags P.Lint
      "%d lint error(s) in pass %s"
      (List.length (Analysis.Diag.errors diags))
      pass

(* The per-query pipeline: the {!Experiments.Cell} stages under the
   engine's stage timers, each stage's diagnostics and cycle-limit
   outcomes mapped to a reject. Raises [Rejected] on every admission
   failure; precedence is preflight lint, isolation cycle limits,
   counter lint, model lint, then the co-run's cycle limit. *)
let compute t (q : P.analyze) : P.analyze_result =
  let id = q.id in
  let scenario =
    match Scenario.find q.scenario with
    | Some s -> s
    | None -> rejectf ~id P.Invalid "unknown scenario %S" q.scenario
  in
  if q.models = [] then rejectf ~id P.Invalid "no models requested";
  let max_core =
    Array.length Tcsim.Machine.default_config.Tcsim.Machine.cores - 1
  in
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let program_of = build_program ~id ~max_size:t.config.max_program_size in
  let app =
    match q.app with
    | P.App_bundled -> Workload.Control_loop.app variant
    | P.App_inline spec -> program_of spec
  in
  let contenders =
    List.map
      (fun spec ->
         let core =
           match spec with
           | P.Con_level { core; _ } | P.Con_inline { ccore = core; _ } -> core
         in
         if core < 1 || core > max_core then
           rejectf ~id P.Invalid
             "contender core %d out of range 1..%d (core 0 runs the task \
              under analysis)"
             core max_core;
         Cell.task (Printf.sprintf "contender%d" core) core
           (match spec with
            | P.Con_level { level; core } ->
              Workload.Load_gen.make ~variant ~level ~region_slot:core ()
            | P.Con_inline { cprogram; _ } -> program_of cprogram))
      q.contenders
  in
  let cores = List.map (fun (c : Analysis.Program_lint.task) -> c.core) contenders in
  if List.length (List.sort_uniq compare cores) <> List.length cores then
    rejectf ~id P.Invalid "duplicate contender cores";
  let cell = { Cell.scenario; config = None; app = Cell.task "app" 0 app; contenders } in
  stage "serve.stage.lint" h_stage_lint (fun () ->
      guard_lint ~id ~pass:"serve.preflight" (Cell.preflight cell));
  (* All the request's simulations — every task alone on its core, then
     (when observed) the co-run — run in order in one pool task, so the
     co-run reads the scripts the isolations compiled from the script
     memo. The co-run's outcome is deferred to its own stage below. *)
  let measured =
    stage "serve.stage.isolation" h_stage_isolation (fun () ->
        match
          Runtime.Pool.run_all_in ~label:"serve.sims" t.pool
            [ (fun () -> Cell.measure ~corun:q.observed cell) ]
        with
        | [ m ] -> m
        | _ -> assert false)
  in
  let iso =
    match measured.Cell.isolation with
    | Ok iso -> iso
    | Error (label, Tcsim.Machine.Cycle_limit_exceeded c) ->
      rejectf ~id P.Cycle_limit
        "task %S exceeded the cycle limit in isolation (at cycle %d)" label c
    | Error (_, e) -> raise e
  in
  guard_lint ~id ~pass:"serve.counters" (Cell.counter_lint cell iso);
  let bounds =
    stage "serve.stage.bounds" h_stage_bounds (fun () ->
        let models =
          if List.mem P.Ilp_ptac q.models then begin
            let models, diags = Cell.models cell iso in
            guard_lint ~id ~pass:"serve.model" diags;
            Some models
          end
          else None
        in
        let b = Cell.bounds ?models cell iso in
        List.map
          (fun m ->
             ( m,
               match m with
               | P.Ftc -> Some b.Cell.ftc.Contention.Ftc.delta
               | P.Ideal -> Some b.Cell.ideal_delta
               | P.Ilp_ptac ->
                 Option.map (fun (r : Contention.Multi.result) -> r.delta) b.ilp ))
          q.models)
  in
  let observed_cycles =
    Option.map
      (fun outcome ->
         stage "serve.stage.corun" h_stage_corun (fun () ->
             match outcome with
             | Ok (o : Mbta.Measurement.observation) -> o.cycles
             | Error (Tcsim.Machine.Cycle_limit_exceeded c) ->
               rejectf ~id P.Cycle_limit
                 "co-run exceeded the cycle limit (at cycle %d)" c
             | Error e -> raise e))
      measured.Cell.corun
  in
  {
    P.isolation_cycles = iso.Cell.iso_app.Mbta.Measurement.cycles;
    observed_cycles;
    bounds;
    app_counters = iso.Cell.iso_app.Mbta.Measurement.counters;
    contender_counters =
      List.map2
        (fun (c : Analysis.Program_lint.task) (o : Mbta.Measurement.observation) ->
           (c.core, o.counters))
        contenders iso.Cell.iso_contenders;
  }

(* --- query-level single-flight + disk tier ------------------------------ *)

let disk_query_load t k =
  match t.config.disk with
  | None -> None
  | Some disk -> (
    match Disk_cache.load disk ~ns:"query" ~key:k with
    | None -> None
    | Some value -> (
      match Obs.Json.parse value with
      | Error _ -> None
      | Ok j -> P.result_of_json j))

let disk_query_save t k r =
  match t.config.disk with
  | None -> ()
  | Some disk ->
    Disk_cache.store disk ~ns:"query" ~key:k
      (Obs.Json.to_string (P.result_to_json r))

let analyze (t : t) (q : P.analyze) =
  let t0 = Unix.gettimeofday () in
  let finish cache result =
    Atomic.incr t.served;
    let wall_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    Obs.Metrics.observe m_latency (float_of_int wall_us /. 1e6);
    P.Result { rid = q.id; cache; wall_us; result }
  in
  let k = digest q in
  match Runtime.Single_flight.acquire t.table k with
  | `Hit (r, _) ->
    Atomic.incr t.memory_hits;
    Obs.Metrics.incr m_memory_hits;
    Obs.Tracer.instant "cache.query.memory_hit"
      ~attrs:(fun () -> [ ("digest", k) ]);
    finish P.Memory r
  | `Reserved -> (
    match disk_query_load t k with
    | Some r ->
      Runtime.Single_flight.settle t.table k r;
      Atomic.incr t.disk_hits;
      Obs.Metrics.incr m_disk_hits;
      Obs.Tracer.instant "cache.query.disk_hit"
        ~attrs:(fun () -> [ ("digest", k) ]);
      finish P.Disk r
    | None -> (
      match compute t q with
      | r ->
        Runtime.Single_flight.settle t.table k r;
        disk_query_save t k r;
        Atomic.incr t.computed;
        Obs.Metrics.incr m_computed;
        Obs.Tracer.instant "cache.query.computed"
          ~attrs:(fun () -> [ ("digest", k) ]);
        finish P.Computed r
      | exception e ->
        Runtime.Single_flight.fail t.table k;
        raise e))

(* --- live introspection -------------------------------------------------- *)

module J = Obs.Json

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

let ints kvs = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) kvs)

(* The rich stats payload. Everything except [uptime_s],
   [in_flight], [stages] and [prometheus] is a pure function of the
   query multiset — jobs-invariant, like the deterministic metrics
   snapshot — and the jobs=1 vs jobs=4 suite pins that. *)
let stats_payload t =
  let rc = Runtime.Run_cache.stats () in
  let sc = Runtime.Solve_cache.stats () in
  let stage_histograms =
    let snap = Obs.Metrics.snapshot () in
    List.filter_map
      (fun (name, h) ->
         let is_stage =
           name = "serve.latency_s"
           || (String.length name >= 12 && String.sub name 0 12 = "serve.stage.")
         in
         if is_stage then Some (name, Obs.Metrics.hist_to_json h) else None)
      snap.Obs.Metrics.histograms
  in
  let recent =
    Mutex.lock t.rejects_lock;
    let r = !(t.recent_rejects) in
    Mutex.unlock t.rejects_lock;
    List.map
      (fun (xid, code, message) ->
         J.Obj
           [
             ("id", match xid with None -> J.Null | Some id -> J.Str id);
             ("code", J.Str (P.reject_code_to_string code));
             ("message", J.Str message);
           ])
      r
  in
  J.Obj
    [
      ("uptime_s", J.Int (int_of_float (Unix.gettimeofday () -. t.created_at)));
      ("in_flight", J.Int (Obs.Metrics.gauge_value g_in_flight));
      ("engine", ints (stats_alist t));
      ( "caches",
        J.Obj
          [
            ( "query",
              ints
                [
                  ("computed", Atomic.get t.computed);
                  ("memory_hits", Atomic.get t.memory_hits);
                  ("disk_hits", Atomic.get t.disk_hits);
                ] );
            ( "run",
              ints
                [
                  ("hits", rc.Runtime.Run_cache.hits);
                  ("misses", rc.Runtime.Run_cache.misses);
                  ("size", Runtime.Run_cache.size ());
                ] );
            ( "solve",
              ints
                [
                  ("hits", sc.Runtime.Solve_cache.hits);
                  ("misses", sc.Runtime.Solve_cache.misses);
                  ("size", Runtime.Solve_cache.size ());
                ] );
            ( "disk",
              ints
                [
                  ("hits", counter_value "serve.disk.hits");
                  ("misses", counter_value "serve.disk.misses");
                  ("corrupt", counter_value "serve.disk.corrupt");
                  ("writes", counter_value "serve.disk.writes");
                  ("errors", counter_value "serve.disk.errors");
                ] );
          ] );
      ( "audit",
        ints
          [
            ("verified", counter_value "audit.verified");
            ("failed", counter_value "audit.failed");
          ] );
      ("stages", J.Obj stage_histograms);
      ("recent_rejects", J.List recent);
      ("prometheus", J.Str (Obs.Metrics.to_prometheus ()));
    ]

(* --- the line-level entry point ----------------------------------------- *)

let handle_request t (req : P.request) =
  match req with
  | P.Ping id -> `Reply (P.Pong id)
  | P.Metrics_req id ->
    `Reply (P.Metrics_reply { mid = id; metrics = Obs.Metrics.to_json_value () })
  | P.Stats_req id ->
    `Reply
      (P.Stats_reply
         { sid = id; stats = stats_alist t; payload = stats_payload t })
  | P.Shutdown id ->
    Obs.Log.info "serve.shutdown" ~fields:(fun () -> [ ("id", J.Str id) ]);
    `Stop (P.Shutdown_ack id)
  | P.Analyze q -> `Reply (analyze t q)

let op_of_request = function
  | P.Ping _ -> "ping"
  | P.Metrics_req _ -> "metrics"
  | P.Stats_req _ -> "stats"
  | P.Shutdown _ -> "shutdown"
  | P.Analyze _ -> "analyze"

let record_reject (t : t) xid code message =
  Atomic.incr t.rejected;
  Obs.Metrics.incr m_rejects;
  Obs.Log.warn "serve.reject"
    ~fields:(fun () ->
        [
          ("id", match xid with None -> J.Null | Some id -> J.Str id);
          ("code", J.Str (P.reject_code_to_string code));
          ("message", J.Str message);
        ]);
  Mutex.lock t.rejects_lock;
  let kept =
    List.filteri (fun i _ -> i < recent_rejects_kept - 1) !(t.recent_rejects)
  in
  t.recent_rejects := (xid, code, message) :: kept;
  Mutex.unlock t.rejects_lock

let handle_line t line =
  Obs.Metrics.incr m_requests;
  Obs.Metrics.gauge_add g_in_flight 1;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.gauge_add g_in_flight (-1))
  @@ fun () ->
  let reply =
    if String.length line > t.config.max_request_bytes then
      `Reply
        (reject P.Oversize
           (Printf.sprintf "request is over %d bytes"
              t.config.max_request_bytes)
           [])
    else
      match P.decode_request line with
      | Error msg -> `Reply (reject P.Parse msg [])
      | Ok req ->
        let run () =
          Obs.Tracer.with_span "serve.request"
            ~attrs:(fun () ->
                ("op", op_of_request req)
                ::
                (match req with
                 | P.Analyze { trace = Some tr; _ } ->
                   [ ("parent", tr.P.parent_span) ]
                 | _ -> []))
            (fun () ->
               try handle_request t req with
               | Rejected r -> `Reply r
               | e ->
                 let id =
                   match req with
                   | P.Analyze q -> q.id
                   | P.Ping id | P.Metrics_req id | P.Stats_req id
                   | P.Shutdown id -> id
                 in
                 Obs.Log.error "serve.internal"
                   ~fields:(fun () ->
                       [ ("id", J.Str id);
                         ("exn", J.Str (Printexc.to_string e)) ]);
                 `Reply (reject ~id P.Internal (Printexc.to_string e) []))
        in
        (* adopt the requester's trace id for the whole handling, so
           daemon spans (and the pool workers they fan out to) join the
           client's trace *)
        (match req with
         | P.Analyze { trace = Some tr; _ } ->
           Obs.Tracer.with_trace tr.P.trace_id run
         | _ -> run ())
  in
  (match reply with
   | `Reply (P.Reject { xid; code; message; _ }) ->
     record_reject t xid code message
   | _ -> ());
  match reply with
  | `Reply r -> `Reply (P.encode_response r)
  | `Stop r -> `Stop (P.encode_response r)
