(* Tests for the observability layer.

   Metrics coverage: histogram bucket-edge semantics, counter atomicity
   under a 4-domain hammer, and the JSON export parsing back through the
   bundled JSON reader. Tracer coverage: span nesting/ordering and the
   Chrome trace_event export round-tripping through the parser. The
   qcheck property pins the determinism contract: the jobs-invariant
   snapshot is identical for jobs=1 and jobs=4 over a random cached
   solver workload. *)

open Numeric

let q = Q.of_int

(* --- metrics -------------------------------------------------------------- *)

let test_histogram_bucket_edges () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 5. |] "test.hist" in
  (* edges are inclusive upper bounds; 7.0 overflows past the last edge *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 7.0 ];
  let snap = Obs.Metrics.snapshot () in
  let hs = List.assoc "test.hist" snap.Obs.Metrics.histograms in
  Alcotest.(check (array (float 1e-9))) "edges" [| 1.; 2.; 5. |] hs.Obs.Metrics.edges;
  Alcotest.(check (array int)) "per-bucket counts (last = overflow)"
    [| 2; 2; 2; 1 |] hs.Obs.Metrics.counts;
  Alcotest.(check int) "count" 7 hs.Obs.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 21.9 hs.Obs.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 0.5 hs.Obs.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 7.0 hs.Obs.Metrics.max

let test_histogram_rejects_bad_edges () =
  (match Obs.Metrics.histogram ~buckets:[||] "test.hist.empty" with
   | _ -> Alcotest.fail "empty edges accepted"
   | exception Invalid_argument _ -> ());
  match Obs.Metrics.histogram ~buckets:[| 2.; 1. |] "test.hist.decreasing" with
  | _ -> Alcotest.fail "non-increasing edges accepted"
  | exception Invalid_argument _ -> ()

let test_kind_clash_rejected () =
  ignore (Obs.Metrics.counter "test.clash");
  match Obs.Metrics.gauge "test.clash" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_counter_hammer () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.hammer" in
  let g = Obs.Metrics.gauge "test.hammer.max" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Metrics.incr c;
              Obs.Metrics.set_max g ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain) (Obs.Metrics.value c);
  Alcotest.(check int) "monotonic max across domains" (4 * per_domain)
    (Obs.Metrics.gauge_value g)

let test_metrics_json_roundtrip () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "test.json.counter") 7;
  Obs.Metrics.set (Obs.Metrics.gauge "test.json.gauge") 3;
  Obs.Metrics.observe (Obs.Metrics.histogram ~buckets:[| 1. |] "test.json.hist") 0.5;
  match Obs.Json.parse (Obs.Metrics.to_json ()) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok doc ->
    let section name =
      match Obs.Json.member name doc with
      | Some (Obs.Json.Obj kvs) -> kvs
      | _ -> Alcotest.failf "missing %S object" name
    in
    (match List.assoc_opt "test.json.counter" (section "counters") with
     | Some (Obs.Json.Int 7) -> ()
     | _ -> Alcotest.fail "counter value lost");
    (match List.assoc_opt "test.json.gauge" (section "gauges") with
     | Some (Obs.Json.Int 3) -> ()
     | _ -> Alcotest.fail "gauge value lost");
    match List.assoc_opt "test.json.hist" (section "histograms") with
    | Some (Obs.Json.Obj h) ->
      (match List.assoc_opt "count" h with
       | Some (Obs.Json.Int 1) -> ()
       | _ -> Alcotest.fail "histogram count lost")
    | _ -> Alcotest.fail "histogram section lost"

(* --- tracer --------------------------------------------------------------- *)

let test_span_nesting_and_order () =
  Obs.Tracer.enable ~capacity:64 ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  let r =
    Obs.Tracer.with_span "outer" (fun () ->
        1 + Obs.Tracer.with_span "inner"
              ~attrs:(fun () -> [ ("k", "v") ])
              (fun () -> 41))
  in
  Alcotest.(check int) "value passes through" 42 r;
  match Obs.Tracer.events () with
  | [ inner; outer ] ->
    (* events are recorded at span end, so the child precedes its parent *)
    Alcotest.(check string) "inner recorded first" "inner" inner.Obs.Tracer.name;
    Alcotest.(check string) "outer recorded last" "outer" outer.Obs.Tracer.name;
    Alcotest.(check int) "outer is top level" 0 outer.Obs.Tracer.depth;
    Alcotest.(check int) "inner nests one deeper" 1 inner.Obs.Tracer.depth;
    Alcotest.(check bool) "inner starts after outer" true
      (inner.Obs.Tracer.ts_us >= outer.Obs.Tracer.ts_us);
    Alcotest.(check bool) "outer covers inner" true
      (outer.Obs.Tracer.dur_us >= inner.Obs.Tracer.dur_us);
    Alcotest.(check (list (pair string string))) "attrs survive" [ ("k", "v") ]
      inner.Obs.Tracer.attrs
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_disabled_is_transparent () =
  Obs.Tracer.disable ();
  Alcotest.(check bool) "disabled" false (Obs.Tracer.enabled ());
  Alcotest.(check int) "value passes through" 7
    (Obs.Tracer.with_span "ignored" (fun () -> 7));
  Alcotest.(check int) "no events collected" 0
    (List.length (Obs.Tracer.events ()))

let test_span_records_on_exception () =
  Obs.Tracer.enable ~capacity:16 ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  (match Obs.Tracer.with_span "boom" (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure _ -> ());
  match Obs.Tracer.events () with
  | [ e ] -> Alcotest.(check string) "span survives the raise" "boom" e.Obs.Tracer.name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_ring_eviction () =
  Obs.Tracer.enable ~capacity:4 ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  for i = 1 to 10 do
    Obs.Tracer.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun e -> e.Obs.Tracer.name) (Obs.Tracer.events ()) in
  Alcotest.(check (list string)) "newest four retained, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ] names;
  Alcotest.(check int) "evictions counted" 6 (Obs.Tracer.dropped ())

let test_chrome_trace_roundtrip () =
  Obs.Tracer.enable ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  ignore
    (Obs.Tracer.with_span "alpha" (fun () ->
         Obs.Tracer.with_span "beta" (fun () -> 1)));
  match Obs.Json.parse (Obs.Tracer.to_chrome_json ()) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok doc ->
    let events =
      match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "missing traceEvents array"
    in
    Alcotest.(check int) "two complete events" 2 (List.length events);
    List.iter
      (fun ev ->
         List.iter
           (fun k ->
              if Obs.Json.member k ev = None then
                Alcotest.failf "event missing field %S" k)
           [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
         match Obs.Json.member "ph" ev with
         | Some (Obs.Json.Str "X") -> ()
         | _ -> Alcotest.fail "expected complete events (ph = X)")
      events;
    let names =
      List.filter_map
        (fun ev ->
           match Obs.Json.member "name" ev with
           | Some (Obs.Json.Str s) -> Some s
           | _ -> None)
        events
    in
    Alcotest.(check (list string)) "record order" [ "beta"; "alpha" ] names

(* --- golden helpers -------------------------------------------------------- *)

(* [AURIX_GEN_GOLDEN=<dir> ./test_obs.exe] rewrites the observability
   fixtures instead of checking them, mirroring test_serve. *)
let golden_check ~name got =
  match Sys.getenv_opt "AURIX_GEN_GOLDEN" with
  | Some dir ->
    let oc = open_out (Filename.concat dir name) in
    output_string oc got;
    close_out oc
  | None ->
    let ic = open_in (Filename.concat "golden" name) in
    let want =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Alcotest.(check string) (name ^ " matches fixture") want got

(* --- trace context ---------------------------------------------------------- *)

let test_with_trace_scoping () =
  Alcotest.(check string) "no ambient trace" "" (Obs.Tracer.current_trace ());
  let seen =
    Obs.Tracer.with_trace "outer-id" (fun () ->
        let outer = Obs.Tracer.current_trace () in
        let inner = Obs.Tracer.with_trace "inner-id" Obs.Tracer.current_trace in
        (outer, inner, Obs.Tracer.current_trace ()))
  in
  Alcotest.(check (triple string string string))
    "nested ids install and restore" ("outer-id", "inner-id", "outer-id") seen;
  Alcotest.(check string) "restored outside" "" (Obs.Tracer.current_trace ());
  (match Obs.Tracer.with_trace "boom-id" (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure _ -> ());
  Alcotest.(check string) "restored after a raise" ""
    (Obs.Tracer.current_trace ())

let test_instant_events () =
  Obs.Tracer.enable ~capacity:16 ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  Obs.Tracer.with_trace "trace-i" (fun () ->
      Obs.Tracer.with_span "host" (fun () ->
          Obs.Tracer.instant "cache.solve.hit"
            ~attrs:(fun () -> [ ("key", "k") ])));
  match Obs.Tracer.events () with
  | [ inst; host ] ->
    (* the instant is recorded immediately, the span at its end *)
    Alcotest.(check string) "instant name" "cache.solve.hit"
      inst.Obs.Tracer.name;
    Alcotest.(check bool) "instant kind" true
      (inst.Obs.Tracer.kind = Obs.Tracer.Instant);
    Alcotest.(check (float 0.)) "instants have no duration" 0.
      inst.Obs.Tracer.dur_us;
    Alcotest.(check string) "instant carries the ambient trace" "trace-i"
      inst.Obs.Tracer.trace;
    Alcotest.(check int) "instant nests under the open span" 1
      inst.Obs.Tracer.depth;
    Alcotest.(check (list (pair string string))) "instant attrs"
      [ ("key", "k") ] inst.Obs.Tracer.attrs;
    Alcotest.(check bool) "host is a span" true
      (host.Obs.Tracer.kind = Obs.Tracer.Span);
    Alcotest.(check string) "span carries the ambient trace too" "trace-i"
      host.Obs.Tracer.trace
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_trace_propagates_to_pool () =
  Obs.Tracer.enable ~capacity:256 ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  let inputs = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let results =
    Obs.Tracer.with_trace "pool-trace" (fun () ->
        Runtime.Pool.map ~jobs:4
          (fun i -> Obs.Tracer.with_span "pool.work" (fun () -> 2 * i))
          inputs)
  in
  Alcotest.(check (list int)) "results in order" (List.map (( * ) 2) inputs)
    results;
  let works =
    List.filter
      (fun e -> e.Obs.Tracer.name = "pool.work")
      (Obs.Tracer.events ())
  in
  Alcotest.(check int) "one span per task" (List.length inputs)
    (List.length works);
  List.iter
    (fun e ->
       Alcotest.(check string) "worker span joins the submitter's trace"
         "pool-trace" e.Obs.Tracer.trace)
    works

let test_trace_dropped_metric () =
  Obs.Metrics.reset ();
  Obs.Tracer.enable ~capacity:2 ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  for i = 1 to 5 do
    Obs.Tracer.with_span (Printf.sprintf "d%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "ring evictions" 3 (Obs.Tracer.dropped ());
  Alcotest.(check int) "mirrored on obs.trace.dropped" 3
    (Obs.Metrics.value (Obs.Metrics.counter "obs.trace.dropped"))

(* --- log -------------------------------------------------------------------- *)

let reset_log () =
  Obs.Log.set_level Obs.Log.Info;
  Obs.Log.set_capacity 4096

let test_log_level_gating () =
  Obs.Log.set_capacity 64;
  Fun.protect ~finally:reset_log @@ fun () ->
  Obs.Log.set_level Obs.Log.Warn;
  let ran = ref false in
  let spy () =
    ran := true;
    [ ("k", Obs.Json.Int 1) ]
  in
  Obs.Log.debug "below.threshold" ~fields:spy;
  Obs.Log.info "below.threshold.too" ~fields:spy;
  Alcotest.(check bool) "fields thunk not run below threshold" false !ran;
  Alcotest.(check int) "nothing admitted" 0
    (List.length (Obs.Log.entries ()));
  Obs.Log.warn "at.threshold" ~fields:spy;
  Alcotest.(check bool) "thunk runs when admitted" true !ran;
  match Obs.Log.entries () with
  | [ e ] ->
    Alcotest.(check string) "event" "at.threshold" e.Obs.Log.event;
    Alcotest.(check bool) "level" true (e.Obs.Log.level = Obs.Log.Warn);
    Alcotest.(check bool) "fields kept" true
      (e.Obs.Log.fields = [ ("k", Obs.Json.Int 1) ])
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_log_ring_drop () =
  Obs.Metrics.reset ();
  Obs.Log.set_capacity 4;
  Fun.protect ~finally:reset_log @@ fun () ->
  for i = 1 to 10 do
    Obs.Log.info (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check (list string)) "newest four retained, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun e -> e.Obs.Log.event) (Obs.Log.entries ()));
  Alcotest.(check int) "drops counted" 6 (Obs.Log.dropped ());
  Alcotest.(check int) "mirrored on obs.log.dropped" 6
    (Obs.Metrics.value (Obs.Metrics.counter "obs.log.dropped"));
  Alcotest.(check (list int)) "sequence numbers stay global" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.Log.seq) (Obs.Log.entries ()))

let test_log_trace_correlation () =
  Obs.Log.set_capacity 16;
  Fun.protect ~finally:reset_log @@ fun () ->
  Obs.Tracer.with_trace "corr-1" (fun () -> Obs.Log.info "inside");
  Obs.Log.info "outside";
  match Obs.Log.entries () with
  | [ a; b ] ->
    Alcotest.(check string) "entry under with_trace is stamped" "corr-1"
      a.Obs.Log.trace;
    Alcotest.(check string) "entry outside is blank" "" b.Obs.Log.trace
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_log_sink_mirror () =
  Obs.Log.set_capacity 16;
  let path = Filename.temp_file "aurix-log" ".jsonl" in
  let oc = open_out path in
  Obs.Log.set_sink_channel (Some oc);
  Fun.protect
    ~finally:(fun () ->
        Obs.Log.set_sink_channel None;
        close_out_noerr oc;
        (try Sys.remove path with _ -> ());
        reset_log ())
  @@ fun () ->
  Obs.Log.info "sink.one" ~fields:(fun () -> [ ("n", Obs.Json.Int 1) ]);
  Obs.Log.info "sink.two";
  let ic = open_in path in
  let mirrored =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "sink mirrors the ring line for line"
    (Obs.Log.to_jsonl ()) mirrored

let test_log_golden () =
  Obs.Log.set_capacity 64;
  let tick = ref 0 in
  Obs.Log.set_clock (fun () ->
      incr tick;
      1700000000. +. (float_of_int !tick /. 8.));
  Fun.protect
    ~finally:(fun () ->
        Obs.Log.reset_clock ();
        reset_log ())
  @@ fun () ->
  Obs.Log.set_level Obs.Log.Debug;
  Obs.Tracer.with_trace "0123456789abcdef" (fun () ->
      Obs.Log.info "serve.listening"
        ~fields:(fun () -> [ ("port", Obs.Json.Int 7040) ]);
      Obs.Log.debug "cache.query"
        ~fields:(fun () -> [ ("outcome", Obs.Json.Str "memory_hit") ]));
  Obs.Log.warn "disk.quarantine"
    ~fields:(fun () ->
        [ ("ns", Obs.Json.Str "solve"); ("key", Obs.Json.Str "abc123") ]);
  Obs.Log.error "serve.connection_error"
    ~fields:(fun () -> [ ("exn", Obs.Json.Str "End_of_file") ]);
  golden_check ~name:"obs_log_golden.jsonl" (Obs.Log.to_jsonl ())

(* --- metrics exposition ------------------------------------------------------ *)

let test_deterministic_snapshot_sorted () =
  Obs.Metrics.reset ();
  (* registered out of order on purpose; histograms must stay excluded *)
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~buckets:[| 1. |] "test.det.hist") 0.5;
  Obs.Metrics.add (Obs.Metrics.counter "test.det.z") 2;
  Obs.Metrics.add (Obs.Metrics.counter "test.det.a") 1;
  Obs.Metrics.set (Obs.Metrics.gauge "test.det.m") 9;
  let snap = Obs.Metrics.deterministic_snapshot () in
  let keys = List.map fst snap in
  Alcotest.(check (list string)) "keys are name-sorted"
    (List.sort compare keys) keys;
  let ours =
    List.filter (fun (k, _) -> String.length k >= 9 && String.sub k 0 9 = "test.det.")
      snap
  in
  Alcotest.(check (list (pair string int))) "pinned subset, sorted"
    [ ("test.det.a", 1); ("test.det.m", 9); ("test.det.z", 2) ]
    ours

let test_prometheus_format () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "test.prom.requests") 5;
  Obs.Metrics.set (Obs.Metrics.gauge "test.prom.in_flight") 2;
  let h = Obs.Metrics.histogram ~buckets:[| 0.1; 1. |] "test.prom.latency_s" in
  (* binary-exact observations so the rendered sum is stable *)
  List.iter (Obs.Metrics.observe h) [ 0.0625; 0.5; 5. ];
  let text = Obs.Metrics.to_prometheus () in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i =
      i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
    in
    if not (go 0) then Alcotest.failf "exposition misses %S" needle
  in
  has "# TYPE aurix_test_prom_requests counter\naurix_test_prom_requests 5\n";
  has "# TYPE aurix_test_prom_in_flight gauge\naurix_test_prom_in_flight 2\n";
  has "# TYPE aurix_test_prom_latency_s histogram\n";
  has "aurix_test_prom_latency_s_bucket{le=\"0.1\"} 1\n";
  has "aurix_test_prom_latency_s_bucket{le=\"1\"} 2\n";
  has "aurix_test_prom_latency_s_bucket{le=\"+Inf\"} 3\n";
  has "aurix_test_prom_latency_s_sum 5.5625\n";
  has "aurix_test_prom_latency_s_count 3\n"

(* --- trace analyzer ---------------------------------------------------------- *)

(* Hand-written two-process request: a client span and a daemon span
   tree sharing trace id tr-1, plus a second daemon-only request tr-2.
   Integer µs timestamps keep every derived number exact, so the
   analyzer report is pinned byte-for-byte as a golden fixture. *)
let client_trace_fixture =
  {|{"traceEvents": [
  {"name": "client.rpc", "ph": "X", "ts": 50, "dur": 750, "pid": 1, "tid": 0,
   "args": {"trace": "tr-1", "op": "analyze"}}
]}
|}

let daemon_trace_fixture =
  {|{"traceEvents": [
  {"name": "serve.request", "ph": "X", "ts": 100, "dur": 800, "pid": 2, "tid": 0,
   "args": {"trace": "tr-1", "op": "analyze"}},
  {"name": "serve.stage.lint", "ph": "X", "ts": 120, "dur": 50, "pid": 2, "tid": 0,
   "args": {"trace": "tr-1"}},
  {"name": "serve.stage.bounds", "ph": "X", "ts": 180, "dur": 300, "pid": 2, "tid": 0,
   "args": {"trace": "tr-1"}},
  {"name": "cache.solve.miss", "ph": "i", "ts": 200, "s": "t", "pid": 2, "tid": 0,
   "args": {"trace": "tr-1"}},
  {"name": "disk.hit", "ph": "i", "ts": 210, "s": "t", "pid": 2, "tid": 0,
   "args": {"trace": "tr-1"}},
  {"name": "serve.stage.isolation", "ph": "X", "ts": 500, "dur": 200, "pid": 2, "tid": 0,
   "args": {"trace": "tr-1"}},
  {"name": "serve.request", "ph": "X", "ts": 1000, "dur": 100, "pid": 2, "tid": 0,
   "args": {"trace": "tr-2", "op": "analyze"}}
]}
|}

let analyze_fixture () =
  match
    Obs.Trace_analyzer.of_strings
      [ ("client", client_trace_fixture); ("daemon", daemon_trace_fixture) ]
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "fixture does not analyze: %s" e

let test_analyzer_forest () =
  let t = analyze_fixture () in
  Alcotest.(check (list (pair int string))) "one process per input file"
    [ (1, "client"); (2, "daemon") ]
    t.Obs.Trace_analyzer.processes;
  Alcotest.(check int) "spans" 6 (List.length t.Obs.Trace_analyzer.spans);
  Alcotest.(check int) "instants" 2 (List.length t.Obs.Trace_analyzer.instants);
  Alcotest.(check (list string)) "critical path follows the slowest children"
    [ "serve.request"; "serve.stage.bounds" ]
    (List.map
       (fun n -> n.Obs.Trace_analyzer.name)
       (Obs.Trace_analyzer.critical_path t));
  Alcotest.(check (list (pair string (float 1e-9))))
    "requests sorted slowest first"
    [ ("serve.request", 800.); ("client.rpc", 750.); ("serve.request", 100.) ]
    (List.map
       (fun n -> (n.Obs.Trace_analyzer.name, n.Obs.Trace_analyzer.dur))
       (Obs.Trace_analyzer.requests t))

let test_analyzer_stages () =
  let t = analyze_fixture () in
  Alcotest.(check (list (triple string int (float 1e-9))))
    "per-stage self time sums to traced wall time"
    [
      ("client", 1, 750.);
      ("serve", 2, 350.);
      ("solve", 1, 300.);
      ("sim", 1, 200.);
      ("lint", 1, 50.);
    ]
    (List.map
       (fun s ->
          Obs.Trace_analyzer.
            (s.stage, s.stage_spans, s.stage_self_us))
       (Obs.Trace_analyzer.stages t))

let test_stage_of_name () =
  Alcotest.(check (list (pair string string)))
    "span names map to their stages"
    [
      ("figure4.row", "experiments");
      ("ablations.a3", "experiments");
      ("integration.run", "experiments");
      ("cell.programs", "workload");
      ("cell.preflight", "lint");
      ("cell.measure", "sim");
      ("cell.counters", "lint");
      ("cell.models", "lint");
      ("cell.bounds", "solve");
      ("measure.corun", "sim");
      ("tcsim.run", "sim");
      ("ilp.branch_bound", "solve");
      ("serve.stage.lint", "lint");
      ("serve.stage.bounds", "solve");
      ("serve.request", "serve");
      ("pool.task", "pool");
      ("unnamed.span", "other");
    ]
    (List.map
       (fun name -> (name, Obs.Trace_analyzer.stage_of_name name))
       [
         "figure4.row"; "ablations.a3"; "integration.run"; "cell.programs";
         "cell.preflight"; "cell.measure"; "cell.counters"; "cell.models";
         "cell.bounds"; "measure.corun";
         "tcsim.run"; "ilp.branch_bound"; "serve.stage.lint";
         "serve.stage.bounds"; "serve.request"; "pool.task"; "unnamed.span";
       ])

let test_analyzer_span_table () =
  (* a nested trace recorded by the tracer itself: two outer spans, each
     with inner spans, one of them with leaves *)
  Obs.Tracer.enable ();
  Fun.protect ~finally:Obs.Tracer.disable @@ fun () ->
  let busy () = ignore (Sys.opaque_identity (List.init 200 Fun.id)) in
  for _ = 1 to 2 do
    Obs.Tracer.with_span "outer" (fun () ->
        busy ();
        Obs.Tracer.with_span "inner" (fun () ->
            busy ();
            for _ = 1 to 3 do
              Obs.Tracer.with_span "leaf" busy
            done);
        Obs.Tracer.with_span "inner" busy)
  done;
  let recorded name =
    List.length
      (List.filter (fun e -> e.Obs.Tracer.name = name) (Obs.Tracer.events ()))
  in
  match Obs.Trace_analyzer.of_string (Obs.Tracer.to_chrome_json ()) with
  | Error e -> Alcotest.failf "trace does not analyze: %s" e
  | Ok t ->
    let table = Obs.Trace_analyzer.span_table t in
    Alcotest.(check (list (pair string int))) "calls per name = spans recorded"
      (List.map (fun n -> (n, recorded n)) [ "inner"; "leaf"; "outer" ])
      (List.sort compare
         (List.map
            (fun s -> Obs.Trace_analyzer.(s.span_name, s.calls))
            table));
    let self_sum =
      List.fold_left
        (fun acc s -> acc +. s.Obs.Trace_analyzer.span_self_us)
        0. table
    in
    let stage_sum =
      List.fold_left
        (fun acc s -> acc +. s.Obs.Trace_analyzer.stage_self_us)
        0. (Obs.Trace_analyzer.stages t)
    in
    Alcotest.(check (float 1e-6)) "self times sum to the span time" stage_sum
      self_sum;
    let root_sum =
      List.fold_left (fun acc n -> acc +. n.Obs.Trace_analyzer.dur) 0.
        t.Obs.Trace_analyzer.roots
    in
    Alcotest.(check (float 1e-6)) "span time is the roots' time" root_sum
      self_sum;
    let report = Obs.Trace_analyzer.report_string t in
    let needle = Printf.sprintf "span time: %.3f ms" (self_sum /. 1e3) in
    let rec has i =
      i + String.length needle <= String.length report
      && (String.sub report i (String.length needle) = needle || has (i + 1))
    in
    Alcotest.(check bool) "the report prints that span time" true (has 0)

let test_analyzer_sim_work () =
  let trace =
    {|{"traceEvents": [
  {"name": "tcsim.run", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0,
   "args": {"cores": "1", "events": "120", "skipped_events": "100"}},
  {"name": "tcsim.run", "ph": "X", "ts": 20, "dur": 10, "pid": 1, "tid": 0,
   "args": {"cores": "2", "events": "30", "skipped_events": "0"}}
]}|}
  in
  match Obs.Trace_analyzer.of_string trace with
  | Error e -> Alcotest.failf "fixture does not analyze: %s" e
  | Ok t ->
    Alcotest.(check (option (triple int int int))) "runs, events and skipped events summed"
      (Some (2, 150, 100))
      (Option.map
         (fun w -> Obs.Trace_analyzer.(w.sim_runs, w.sim_events, w.sim_skipped_events))
         (Obs.Trace_analyzer.sim_work t));
    Alcotest.(check bool) "the report shows them" true
      (let r = Obs.Trace_analyzer.report_string t in
       let needle = "tcsim.events=150  tcsim.solo.skipped_events=100" in
       let rec has i =
         i + String.length needle <= String.length r
         && (String.sub r i (String.length needle) = needle || has (i + 1))
       in
       has 0);
    Alcotest.(check bool) "no simulator runs, no section" true
      (Obs.Trace_analyzer.sim_work (analyze_fixture ()) = None)

let test_analyzer_caches () =
  let t = analyze_fixture () in
  match Obs.Trace_analyzer.caches t with
  | [ disk; solve ] ->
    Alcotest.(check string) "disk cache" "disk" disk.Obs.Trace_analyzer.cache;
    Alcotest.(check (list (pair string int))) "disk outcomes"
      [ ("hit", 1) ] disk.Obs.Trace_analyzer.outcomes;
    Alcotest.(check (option (float 1e-9))) "disk hit rate" (Some 1.)
      disk.Obs.Trace_analyzer.hit_rate;
    Alcotest.(check string) "solve cache" "solve" solve.Obs.Trace_analyzer.cache;
    Alcotest.(check (list (pair string int))) "solve outcomes"
      [ ("miss", 1) ] solve.Obs.Trace_analyzer.outcomes;
    Alcotest.(check (option (float 1e-9))) "solve hit rate" (Some 0.)
      solve.Obs.Trace_analyzer.hit_rate
  | cs -> Alcotest.failf "expected 2 caches, got %d" (List.length cs)

let test_analyzer_traces_connect () =
  let t = analyze_fixture () in
  match Obs.Trace_analyzer.traces t with
  | [ tr1; tr2 ] ->
    Alcotest.(check string) "request trace id" "tr-1"
      tr1.Obs.Trace_analyzer.trace_id;
    Alcotest.(check (list int)) "tr-1 connects client and daemon" [ 1; 2 ]
      tr1.Obs.Trace_analyzer.pids;
    Alcotest.(check int) "tr-1 spans" 5 tr1.Obs.Trace_analyzer.trace_spans;
    Alcotest.(check (float 1e-9)) "tr-1 self time" 1550.
      tr1.Obs.Trace_analyzer.trace_total_us;
    Alcotest.(check string) "second trace id" "tr-2"
      tr2.Obs.Trace_analyzer.trace_id;
    Alcotest.(check (list int)) "tr-2 stays daemon-only" [ 2 ]
      tr2.Obs.Trace_analyzer.pids
  | ts -> Alcotest.failf "expected 2 traces, got %d" (List.length ts)

let test_analyzer_rejects_garbage () =
  (match Obs.Trace_analyzer.of_string "{not json" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "malformed JSON accepted");
  match Obs.Trace_analyzer.of_string "{\"events\": []}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing traceEvents accepted"

let test_analyzer_golden () =
  (* the fixture files and the pinned report regenerate together *)
  golden_check ~name:"obs_trace_client.json" client_trace_fixture;
  golden_check ~name:"obs_trace_daemon.json" daemon_trace_fixture;
  let t = analyze_fixture () in
  let report = Obs.Trace_analyzer.report_string ~top:5 t in
  (let has needle =
     let nl = String.length needle and hl = String.length report in
     let rec go i =
       i + nl <= hl && (String.sub report i nl = needle || go (i + 1))
     in
     if not (go 0) then Alcotest.failf "report misses %S" needle
   in
   has "critical path:";
   has "stage breakdown";
   has "spans by name";
   has "cache effectiveness:");
  golden_check ~name:"obs_trace_report.txt" (report ^ "\n")

(* --- jobs invariance ------------------------------------------------------- *)

let knapsack ~capacity ~flipped () =
  (* [flipped] builds the same program with the variables created in the
     opposite order — a structural twin of the unflipped build *)
  let m = Ilp.Model.create () in
  let add v w name =
    let x = Ilp.Model.add_var m ~integer:true ~ub:Q.one name in
    ((q v, x), (q w, x))
  in
  let items = [ (60, 10, "item1"); (100, 20, "item2"); (120, 30, "item3") ] in
  let items = if flipped then List.rev items else items in
  let terms = List.map (fun (v, w, name) -> add v w name) items in
  Ilp.Model.add_constraint m
    (Ilp.Linexpr.of_terms (List.map snd terms))
    Ilp.Model.Le (q capacity);
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms (List.map fst terms));
  m

let test_timing_metrics_excluded () =
  (* metrics registered with ~timing:true (script-memo and solo-skip
     counters) are facts about the run, not the computation: they
     must show up in the full snapshot and the Prometheus exposition
     but never in the deterministic snapshot *)
  let c = Obs.Metrics.counter ~timing:true "test.obs.timing_counter" in
  let g = Obs.Metrics.gauge ~timing:true "test.obs.timing_gauge" in
  Obs.Metrics.incr c;
  Obs.Metrics.set g 3;
  let full = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "present in full snapshot" true
    (List.mem_assoc "test.obs.timing_counter" full.Obs.Metrics.counters
     && List.mem_assoc "test.obs.timing_gauge" full.Obs.Metrics.gauges);
  let det = Obs.Metrics.deterministic_snapshot () in
  Alcotest.(check bool) "counter excluded from deterministic snapshot" false
    (List.mem_assoc "test.obs.timing_counter" det);
  Alcotest.(check bool) "gauge excluded from deterministic snapshot" false
    (List.mem_assoc "test.obs.timing_gauge" det);
  let prom = Obs.Metrics.to_prometheus () in
  let has needle =
    let nl = String.length needle and hl = String.length prom in
    let rec go i = i + nl <= hl && (String.sub prom i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "exposed to prometheus" true
    (has "aurix_test_obs_timing_counter");
  (* and the JSON export files them under "timing", keeping the
     "counters"/"gauges" sections jobs-invariant *)
  match Obs.Json.member "timing" (Obs.Metrics.to_json_value ()) with
  | Some (Obs.Json.Obj timing) ->
    Alcotest.(check bool) "counter under timing in JSON export" true
      (List.mem_assoc "test.obs.timing_counter" timing);
    (match Obs.Json.member "counters" (Obs.Metrics.to_json_value ()) with
     | Some (Obs.Json.Obj counters) ->
       Alcotest.(check bool) "counter absent from counters section" false
         (List.mem_assoc "test.obs.timing_counter" counters)
     | _ -> Alcotest.fail "counters section missing")
  | _ -> Alcotest.fail "timing section missing"

let jobs_invariant_snapshot =
  QCheck.Test.make ~count:10
    ~name:"deterministic snapshot identical for jobs=1 and jobs=4"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 1 60))
    (fun capacities ->
       (* duplicate capacities are the interesting case: concurrent
          requests for one key must still count as one miss. Each
          capacity is also requested as a flipped structural twin, so
          canonical keying is pinned jobs-invariant too. *)
       let requests =
         List.concat_map (fun c -> [ (c, false); (c, true) ]) capacities
       in
       let run jobs =
         Obs.Metrics.reset ();
         Runtime.Solve_cache.clear ();
         ignore
           (Runtime.Pool.map ~jobs
              (fun (c, flipped) ->
                 Runtime.Solve_cache.(
                   solve_ilp (prepare (knapsack ~capacity:c ~flipped ()))))
              requests);
         Obs.Metrics.deterministic_snapshot ()
       in
       run 1 = run 4)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "histogram rejects bad edges" `Quick
            test_histogram_rejects_bad_edges;
          Alcotest.test_case "name/kind clash rejected" `Quick
            test_kind_clash_rejected;
          Alcotest.test_case "counters atomic under 4 domains" `Quick
            test_counter_hammer;
          Alcotest.test_case "JSON export parses back" `Quick
            test_metrics_json_roundtrip;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "span nesting and record order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "disabled tracer is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "span recorded on exception" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "ring evicts oldest events" `Quick test_ring_eviction;
          Alcotest.test_case "chrome trace round-trips" `Quick
            test_chrome_trace_roundtrip;
        ] );
      ( "trace context",
        [
          Alcotest.test_case "with_trace scoping" `Quick
            test_with_trace_scoping;
          Alcotest.test_case "instant events" `Quick test_instant_events;
          Alcotest.test_case "trace id crosses pool workers" `Quick
            test_trace_propagates_to_pool;
          Alcotest.test_case "obs.trace.dropped mirrors evictions" `Quick
            test_trace_dropped_metric;
        ] );
      ( "log",
        [
          Alcotest.test_case "threshold gates unrendered" `Quick
            test_log_level_gating;
          Alcotest.test_case "ring drops oldest and counts" `Quick
            test_log_ring_drop;
          Alcotest.test_case "entries carry the ambient trace" `Quick
            test_log_trace_correlation;
          Alcotest.test_case "sink mirrors the ring" `Quick
            test_log_sink_mirror;
          Alcotest.test_case "golden JSONL rendering" `Quick test_log_golden;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "deterministic snapshot sorted and pinned" `Quick
            test_deterministic_snapshot_sorted;
          Alcotest.test_case "prometheus text format" `Quick
            test_prometheus_format;
        ] );
      ( "trace analyzer",
        [
          Alcotest.test_case "span forest and critical path" `Quick
            test_analyzer_forest;
          Alcotest.test_case "stage breakdown" `Quick test_analyzer_stages;
          Alcotest.test_case "stage names" `Quick test_stage_of_name;
          Alcotest.test_case "span table of a nested trace" `Quick
            test_analyzer_span_table;
          Alcotest.test_case "cache effectiveness" `Quick test_analyzer_caches;
          Alcotest.test_case "simulator work" `Quick test_analyzer_sim_work;
          Alcotest.test_case "trace ids connect processes" `Quick
            test_analyzer_traces_connect;
          Alcotest.test_case "garbage inputs rejected" `Quick
            test_analyzer_rejects_garbage;
          Alcotest.test_case "golden fixtures and report" `Quick
            test_analyzer_golden;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "timing metrics excluded" `Quick
            test_timing_metrics_excluded;
          QCheck_alcotest.to_alcotest jobs_invariant_snapshot;
        ] );
    ]
