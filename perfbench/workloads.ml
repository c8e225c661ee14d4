(* The five workloads and the run protocol they share.

   A run sets the workload up several times (all but once in forked
   children), then runs batches until the measured time is spent.
   Every batch is a fixed amount of work derived from the seed and the
   batch index, and the batch workloads start it from cold runtime
   caches, so a batch does the same work on every machine and the first
   traced batch gives exact, repeatable counts. A traced run spends half
   its time untraced (the base of [obs.trace_overhead]) and half
   replaying the same batches with bench spans on. The host-speed probe
   runs before and after every batch and between sequential operations;
   every time the run reports is scaled by it (see Probe). *)

let now = Unix.gettimeofday
let span = Spans.with_span
let latency = Tcsim.Machine.default_config.Tcsim.Machine.latency
let is_s2 sc = sc.Platform.Scenario.name = "scenario2"

(* ------------------------------------------------------------------ *)
(* Metric snapshots                                                     *)
(* ------------------------------------------------------------------ *)

(* Counters and gauges by name, and each histogram as its "<name>#sum"
   and "<name>#count", read from the JSON rendering of an Obs.Metrics
   registry: the bench's own or, for the service workloads, the daemon's. *)
type snap = (string * float) list

let snap_of_json j : snap =
  let section k = match Obs.Json.member k j with Some (Obs.Json.Obj kvs) -> kvs | _ -> [] in
  let num = function Obs.Json.Int i -> float_of_int i | Obs.Json.Float f -> f | _ -> 0. in
  let field h k = Option.fold ~none:0. ~some:num (Obs.Json.member k h) in
  List.concat_map (fun k -> List.map (fun (n, v) -> (n, num v)) (section k)) [ "counters"; "gauges"; "timing" ]
  @ List.concat_map (fun (n, h) -> [ (n ^ "#sum", field h "sum"); (n ^ "#count", field h "count") ]) (section "histograms")

let local_snap () = snap_of_json (Obs.Metrics.to_json_value ())
let value (s : snap) k = Option.value ~default:0. (List.assoc_opt k s)
let diff (a : snap) (b : snap) : snap = List.map (fun (k, v) -> (k, v -. value a k)) b
let ratio a b = if b = 0. then 0. else a /. b
let hist_mean s k = ratio (value s (k ^ "#sum")) (value s (k ^ "#count"))

(* ------------------------------------------------------------------ *)
(* Workload protocol                                                    *)
(* ------------------------------------------------------------------ *)

type cfg = { seed : int; seconds : float; jobs : int }

type batch = {
  lat : (float * float) list;  (** start time and host ms of each completed operation *)
  attempted : int;
  failed : int;
  outputs : string list;  (** what the program computed, for the digest *)
  extra : (string * float) list;  (** workload-specific counts, summed over traced batches *)
}

type traced = {
  first : snap;  (** the first traced batch *)
  whole : snap;  (** every traced batch *)
  spans : Spans.span list;
  extra : (string * float) list;
  ops : int;
}

type 'st t = {
  setup : cfg -> 'st;
  batch : 'st -> int -> batch;
  snapshot : 'st -> snap;
  finish : 'st -> unit;
  heap_mb : 'st -> float;  (** peak heap of the process that serves the work *)
  layers : 'st -> traced -> (string * float) list;
  tail_p : float;
      (** the percentile op_tail_ms reports: the one that the operations
          of a 15-second run on a 2-vCPU Xeon VM support (Stats.tail_percentile),
          fixed so that it keeps its meaning when a run does more or fewer *)
}

type packed = W : 'st t -> packed

let own_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let report_failure what e = Printf.eprintf "perfbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* Runs [f] in a forked child, which writes what [f] returns to a pipe
   and exits. Gives the child's pid and a function that waits for the
   child and returns what it wrote, or None if [f] raised or the child
   died. *)
let fork_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let s = f () in
        let oc = Unix.out_channel_of_descr w in
        output_string oc s;
        close_out oc;
        0
      with e ->
        report_failure "child process" e;
        1
    in
    flush_all ();
    Unix._exit code
  | pid ->
    Unix.close w;
    let wait () =
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> Some s | _ -> None
    in
    (pid, wait)

let in_child f = snd (fork_child f) ()

(* An operation: a root span plus its start time and latency. *)
let op ~trace name f =
  let t0 = now () in
  let r = span ~trace name f in
  (r, (t0, (now () -. t0) *. 1e3))

let clear_caches () =
  Runtime.Run_cache.clear ();
  Runtime.Solve_cache.clear ()

let median_of name spans = Stats.median (List.map Spans.dur_ms (List.filter (fun s -> s.Spans.name = name) spans))
let total_of names spans = List.filter (fun s -> List.mem s.Spans.name names) spans
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let gc_per_op r =
  [
    ("gc.minor_collections", ratio (sum (fun s -> float_of_int s.Spans.minor_gcs) r) (float_of_int (List.length r)));
    ("gc.major_collections", ratio (sum (fun s -> float_of_int s.Spans.major_gcs) r) (float_of_int (List.length r)));
  ]

(* ------------------------------------------------------------------ *)
(* paper-grid                                                           *)
(* ------------------------------------------------------------------ *)

(* One pass reproduces Figure 4, Table 6 and ablations A1-A4 from cold
   caches at jobs=1; that pass is the operation. Traced batches add a
   pass at jobs=J, which must render the same bytes: on a small shared
   machine a parallel pass varies by +-15% from one pass to the next,
   more than an end-to-end bound can allow, so jobs=J is reported per
   layer. *)
module Paper_grid = struct
  type st = { reference : string; jobs : int }

  let pass ~jobs =
    clear_caches ();
    let fig4 = span "experiments.figure4" (fun () -> Experiments.Figure4.run_all ~jobs ()) in
    let t6 = span "experiments.table6" (fun () -> Experiments.Table6.run ~jobs ()) in
    let ablations =
      span "experiments.ablations" (fun () ->
          let open Experiments.Ablations in
          let a1 = a1_contender_info ~jobs () in
          let a2 = a2_equality_modes ~jobs () in
          let a3 = List.map (a3_multi_contender ~jobs) Gen.scenarios in
          let a4 = a4_fsb ~jobs () in
          Format.asprintf "%a@.%a@.%a@.%a@." pp_a1 a1 pp_a2 a2
            (Format.pp_print_list pp_a3) a3 pp_a4 a4)
    in
    let text =
      Format.asprintf "%a@.%a@.%s" Experiments.Figure4.pp_rows fig4 Experiments.Table6.pp t6 ablations
    in
    (Digest.to_hex (Digest.string text), List.for_all Experiments.Figure4.sound fig4)

  let setup (cfg : cfg) =
    let reference, sound = pass ~jobs:1 in
    if not sound then failwith "a Figure 4 row is unsound";
    { reference; jobs = cfg.jobs }

  let batch st k =
    let ok (digest, sound) = sound && digest = st.reference in
    match op ~trace:k "experiments.pass_jobs1" (fun () -> pass ~jobs:1) with
    | ((digest, _) as p1), lat ->
      let pn = if Spans.enabled () then span ~trace:k "experiments.pass_jobsN" (fun () -> pass ~jobs:st.jobs) else p1 in
      { lat = [ lat ]; attempted = 1; failed = (if ok p1 && ok pn then 0 else 1); outputs = [ digest ]; extra = [] }
    | exception e ->
      report_failure "paper-grid pass" e;
      { lat = []; attempted = 1; failed = 1; outputs = []; extra = [] }

  let layers _ (t : traced) =
    let p1 = List.filter (fun s -> s.Spans.name = "experiments.pass_jobs1") t.spans in
    let ids = List.map (fun s -> s.Spans.id) p1 in
    let in_p1 = List.filter (fun s -> List.mem s.Spans.parent ids) t.spans in
    let j1 = median_of "experiments.pass_jobs1" t.spans and jn = median_of "experiments.pass_jobsN" t.spans in
    (* a traced batch is two passes, and both simulate the same events *)
    let events_per_pass = value t.first "tcsim.events" /. 2. in
    [
      ("experiments.figure4_ms", median_of "experiments.figure4" in_p1);
      ("experiments.table6_ms", median_of "experiments.table6" in_p1);
      ("experiments.ablations_ms", median_of "experiments.ablations" in_p1);
      ("experiments.pass_jobs1_ms", j1);
      ("experiments.pass_jobsN_ms", jn);
      ("runtime.jobsN_speedup", ratio j1 jn);
      ("tcsim.ns_per_event", ratio (j1 *. 1e6) events_per_pass);
      ("tcsim.alloc_words_per_event", ratio (Stats.mean (List.map (fun s -> s.Spans.minor_words) p1)) events_per_pass);
    ]
    @ gc_per_op p1

  let w =
    {
      setup; batch; snapshot = (fun _ -> local_snap ()); finish = ignore; heap_mb = (fun _ -> own_heap_mb ()); layers;
      tail_p = 50.;  (* 18 passes *)
    }
end

(* ------------------------------------------------------------------ *)
(* random-coruns                                                        *)
(* ------------------------------------------------------------------ *)

(* The measurement pipeline on fresh seeded co-runs: pre-flight lint,
   every task in isolation, the observed co-run, counter lint, then the
   fTC, ILP-PTAC (summed over contenders) and ideal bounds. Fresh
   inputs miss every cache, so the kernel's per-event and per-run costs
   both show. *)
module Coruns = struct
  type st = { seed : int }

  let cell (c : Gen.cell) =
    let scenario = c.Gen.scenario in
    let tasks =
      { Analysis.Program_lint.label = "app"; core = 0; program = c.Gen.app }
      :: List.map
        (fun (program, core) -> { Analysis.Program_lint.label = Printf.sprintf "contender%d" core; core; program })
        c.Gen.contenders
    in
    span "analysis.preflight" (fun () -> Analysis.Preflight.run ~latency ~scenario ~tasks ());
    let iso_a = span "mbta.isolation" (fun () -> Mbta.Measurement.isolation ~core:0 c.Gen.app) in
    let iso_b =
      List.map
        (fun (p, core) -> span "mbta.isolation" (fun () -> Mbta.Measurement.isolation ~core p))
        c.Gen.contenders
    in
    let corun =
      span "mbta.corun" (fun () -> Mbta.Measurement.corun ~analysis:(c.Gen.app, 0) ~contenders:c.Gen.contenders ())
    in
    let a = iso_a.Mbta.Measurement.counters in
    let bs = List.map (fun o -> o.Mbta.Measurement.counters) iso_b in
    span "analysis.counter_lint" (fun () ->
        Analysis.Preflight.guard
          (List.concat_map
             (fun (label, r) -> Analysis.Counter_lint.check ~latency ~scenario ~path:[ "isolation"; label ] r)
             (("app", a) :: List.mapi (fun i b -> (Printf.sprintf "contender%d" (i + 1), b)) bs)));
    let ftc = span "contention.ftc" (fun () -> Contention.Ftc.contention_bound ~dirty:(is_s2 scenario) ~latency ~a ()) in
    let options =
      {
        Contention.Ilp_ptac.default_options with
        Contention.Ilp_ptac.dirty_lmu = List.exists (fun b -> b.Platform.Counters.dcache_miss_dirty > 0) bs;
      }
    in
    let ilp =
      span "contention.ilp_ptac" (fun () ->
          Contention.Multi.contention_bound ~options ~latency ~scenario ~a ~contenders:bs ())
    in
    let ideal =
      span "contention.ideal" (fun () ->
          List.fold_left
            (fun acc o ->
               acc
               + Contention.Ideal.contention_bound ~latency ~a:iso_a.Mbta.Measurement.ground_truth
                 ~b:o.Mbta.Measurement.ground_truth ())
            0 iso_b)
    in
    let iso = iso_a.Mbta.Measurement.cycles and observed = corun.Mbta.Measurement.cycles in
    let ilp_delta = match ilp with Some r -> r.Contention.Multi.delta | None -> -1 in
    let single = List.length bs = 1 in
    (* the paper's claim: every model bound covers the observed co-run;
       fTC assumes a single co-runner *)
    let sound = ilp_delta >= 0 && observed <= iso + ilp_delta && ((not single) || observed <= iso + ftc.Contention.Ftc.delta) in
    ( Printf.sprintf "%s x%.4f cores=%d iso=%d observed=%d ftc=%d ilp=%d ideal=%d" scenario.Platform.Scenario.name
        c.Gen.factor (1 + List.length bs) iso observed ftc.Contention.Ftc.delta ilp_delta ideal,
      sound )

  let setup (cfg : cfg) =
    (* warm-up: the first cell of the first batch, which is the shortest *)
    ignore (cell (List.hd (Gen.cells ~seed:cfg.seed ~batch:0)));
    clear_caches ();
    { seed = cfg.seed }

  let batch st k =
    let cells = span ~trace:k "workload.generate" (fun () -> Gen.cells ~seed:st.seed ~batch:k) in
    clear_caches ();
    let results =
      List.mapi
        (fun i c ->
           Probe.tick ();
           match op ~trace:((k * 100) + i) "bench.cell" (fun () -> cell c) with
           | (out, sound), lat ->
             if not sound then Printf.eprintf "perfbench: unsound cell: %s\n%!" out;
             (Some lat, out, sound)
           | exception e ->
             report_failure "random-coruns cell" e;
             (None, "error", false))
        cells
    in
    {
      lat = List.filter_map (fun (lat, _, _) -> lat) results;
      attempted = List.length results;
      failed = List.length (List.filter (fun (_, _, ok) -> not ok) results);
      outputs = List.map (fun (_, out, _) -> out) results;
      extra = [];
    }

  let layers _ (t : traced) =
    let sims = total_of [ "mbta.isolation"; "mbta.corun" ] t.spans in
    let events = value t.whole "tcsim.events" in
    let cells = float_of_int t.ops in
    [
      ("workload.generate_ms", median_of "workload.generate" t.spans /. float_of_int Gen.cells_per_batch);
      ("analysis.preflight_ms", median_of "analysis.preflight" t.spans);
      ("analysis.counter_lint_us", median_of "analysis.counter_lint" t.spans *. 1e3);
      ("mbta.isolation_ms", median_of "mbta.isolation" t.spans);
      ("mbta.corun_ms", median_of "mbta.corun" t.spans);
      ("mbta.alloc_mwords", ratio (sum (fun s -> s.Spans.minor_words) sims) cells /. 1e6);
      ("tcsim.ns_per_event", ratio (sum Spans.dur_ms sims *. 1e6) events);
      ("tcsim.alloc_words_per_event", ratio (sum (fun s -> s.Spans.minor_words) sims) events);
      ("contention.ftc_us", median_of "contention.ftc" t.spans *. 1e3);
      ("contention.ilp_ptac_ms", median_of "contention.ilp_ptac" t.spans);
      ("contention.ideal_us", median_of "contention.ideal" t.spans *. 1e3);
      ( "ilp.us_per_node",
        ratio (sum Spans.dur_ms (total_of [ "contention.ilp_ptac" ] t.spans) *. 1e3) (value t.whole "ilp.bb.nodes") );
    ]
    @ gc_per_op (total_of [ "bench.cell" ] t.spans)

  let w =
    {
      setup; batch; snapshot = (fun _ -> local_snap ()); finish = ignore; heap_mb = (fun _ -> own_heap_mb ()); layers;
      tail_p = 75.;  (* 54 cells *)
    }
end

(* ------------------------------------------------------------------ *)
(* exact-bounds                                                         *)
(* ------------------------------------------------------------------ *)

(* ILP-PTAC bounds on pre-measured counter pairs, each solved with the
   default options (slack 16, stops near the root) and exactly
   (mip_slack = 0, node limit 2000). Its Scenario 2 pairs are ones whose
   exact solve has to branch; most such solves run to the node limit.
   The tail of this workload is branch & bound node throughput, its
   median is root solves. *)
module Exact_bounds = struct
  type pair = {
    scenario : Platform.Scenario.t;
    a : Platform.Counters.t;
    b : Platform.Counters.t;
    gt_a : Platform.Access_profile.t;
    gt_b : Platform.Access_profile.t;
  }

  type st = { pairs : pair list }

  let default_options (b : Platform.Counters.t) =
    { Contention.Ilp_ptac.default_options with Contention.Ilp_ptac.dirty_lmu = b.dcache_miss_dirty > 0 }

  let exact_options b = { (default_options b) with Contention.Ilp_ptac.mip_slack = 0 }

  let measure (g : Gen.pair) =
    let ia = Mbta.Measurement.isolation ~core:0 g.Gen.papp in
    let ib = Mbta.Measurement.isolation ~core:1 g.Gen.pcontender in
    {
      scenario = g.Gen.pscenario;
      a = ia.Mbta.Measurement.counters;
      b = ib.Mbta.Measurement.counters;
      gt_a = ia.Mbta.Measurement.ground_truth;
      gt_b = ib.Mbta.Measurement.ground_truth;
    }

  (* An exact solve capped at one node finishes iff the root relaxation
     is integral. About one Scenario 2 pair in six is, and letting those
     in moved a batch's time by a fifth from seed to seed. *)
  let branches p =
    match
      Contention.Ilp_ptac.contention_bound
        ~options:{ (exact_options p.b) with Contention.Ilp_ptac.node_limit = 1 }
        ~latency ~scenario:p.scenario ~a:p.a ~b:p.b ()
    with
    | Some r -> not r.Contention.Ilp_ptac.exact
    | None -> false

  let setup (cfg : cfg) =
    clear_caches ();
    let rec slot s attempt =
      let p = measure (Gen.pair ~seed:cfg.seed ~slot:s ~attempt) in
      if is_s2 p.scenario && attempt < 20 && not (branches p) then slot s (attempt + 1) else p
    in
    let pairs = List.init (Array.length Gen.pair_design) (fun s -> slot s 0) in
    clear_caches ();
    { pairs }

  let bounds k i p =
    let scenario = p.scenario and a = p.a and b = p.b in
    let trace = (k * 100) + i in
    let ftc = span ~trace "contention.ftc" (fun () -> Contention.Ftc.contention_bound ~dirty:(is_s2 scenario) ~latency ~a ()) in
    let ideal = span ~trace "contention.ideal" (fun () -> Contention.Ideal.contention_bound ~latency ~a:p.gt_a ~b:p.gt_b ()) in
    let solve name options =
      op ~trace name (fun () -> Contention.Ilp_ptac.contention_bound ~options ~latency ~scenario ~a ~b ())
    in
    let d, d_lat = solve "contention.ilp_default" (default_options b) in
    let e, e_lat = solve "contention.ilp_exact" (exact_options b) in
    match (d, e) with
    | Some d, Some e ->
      let open Contention.Ilp_ptac in
      let ftc = ftc.Contention.Ftc.delta in
      (* Ideal <= ILP-PTAC <= fTC, and an exact optimum never exceeds the
         slack-compensated default bound *)
      let ok = ideal <= d.delta && d.delta <= ftc && ideal <= e.delta && e.delta <= ftc && ((not e.exact) || e.delta <= d.delta) in
      let out =
        Printf.sprintf "%d %s ideal=%d default=%d exact=%d%s ftc=%d" i scenario.Platform.Scenario.name ideal d.delta
          e.delta (if e.exact then "" else "(lp)") ftc
      in
      if not ok then Printf.eprintf "perfbench: bound order violated: %s\n%!" out;
      ([ d_lat; e_lat ], out, ok, e.exact)
    | _ -> ([ d_lat; e_lat ], Printf.sprintf "%d infeasible" i, false, false)

  let batch st k =
    clear_caches ();
    let rs =
      List.mapi
        (fun i p ->
           Probe.tick ();
           try bounds k i p
           with e ->
             report_failure "exact-bounds pair" e;
             ([], "error", false, false))
        st.pairs
    in
    {
      lat = List.concat_map (fun (l, _, _, _) -> l) rs;
      attempted = 2 * List.length rs;
      (* a violated order condemns both bounds of the pair *)
      failed = 2 * List.length (List.filter (fun (_, _, ok, _) -> not ok) rs);
      outputs = List.map (fun (_, o, _, _) -> o) rs;
      extra =
        [
          ("exact_attempts", float_of_int (List.length rs));
          ("exact_results", float_of_int (List.length (List.filter (fun (_, _, _, ex) -> ex) rs)));
        ];
    }

  let layers _ (t : traced) =
    let solves = total_of [ "contention.ilp_default"; "contention.ilp_exact" ] t.spans in
    [
      ("contention.ilp_default_ms", median_of "contention.ilp_default" t.spans);
      ("contention.ilp_exact_ms", median_of "contention.ilp_exact" t.spans);
      ("contention.ilp_ptac_ms", Stats.median (List.map Spans.dur_ms solves));
      ("contention.ftc_us", median_of "contention.ftc" t.spans *. 1e3);
      ("contention.ideal_us", median_of "contention.ideal" t.spans *. 1e3);
      ("contention.alloc_kwords_per_bound", ratio (sum (fun s -> s.Spans.minor_words) solves) (float_of_int (List.length solves)) /. 1e3);
      ("ilp.us_per_node", ratio (sum Spans.dur_ms solves *. 1e3) (value t.whole "ilp.bb.nodes"));
      ( "ilp.exact_ratio",
        ratio (Option.value ~default:0. (List.assoc_opt "exact_results" t.extra))
          (Option.value ~default:0. (List.assoc_opt "exact_attempts" t.extra)) );
    ]
    @ gc_per_op solves

  let w =
    {
      setup; batch; snapshot = (fun _ -> local_snap ()); finish = ignore; heap_mb = (fun _ -> own_heap_mb ()); layers;
      tail_p = 75.;  (* 54 bounds *)
    }
end

(* ------------------------------------------------------------------ *)
(* service-hits and service-fresh                                       *)
(* ------------------------------------------------------------------ *)

(* A closed loop of J clients on J connections to a forked daemon
   (Serve.Engine on a Unix socket, J-wide pool, a fresh disk tier,
   runtime caches persisted). Each workload sends one class of request:
   service-hits replays the six bundled queries, computed during set-up,
   and measures the codec and the cache lookup; service-fresh sends
   contenders the daemon has never seen, which run the whole stack while
   the other clients wait their turn. Admission rejects are checked
   during set-up and timed in traced service-hits batches, outside the
   end-to-end numbers. *)
module Service = struct
  type kind = Hits | Fresh

  type st = {
    kind : kind;
    seed : int;
    jobs : int;
    dir : string;
    daemon : int * (unit -> string option);  (** pid, and its exit report: the peak heap *)
    conns : Serve.Client.t array;
    reference : (string, string) Hashtbl.t;  (** query digest -> result computed during set-up *)
    mutable daemon_heap_mb : float;
    mutable stopped : bool;
    mutable next_batch : int;
        (** fresh queries must never repeat, so the requests follow this
            counter rather than the phase's batch number *)
  }

  let tmp_root = Filename.concat ".bench_build" "tmp"

  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let rec rm_rf p =
    match (Unix.lstat p).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

  let addr dir = Serve.Server.Unix_path (Filename.concat dir "s.sock")

  let daemon ~dir ~jobs () =
    let disk = Serve.Disk_cache.open_ ~root:(Filename.concat dir "cache") () in
    let engine =
      Serve.Engine.create
        { Serve.Engine.default_config with jobs = Some jobs; disk = Some disk; persist_runtime_caches = true }
    in
    Serve.Server.serve ~engine ~addr:(addr dir) ();
    Serve.Engine.close engine;
    Printf.sprintf "%.6f" (own_heap_mb ())

  let rpc conn req =
    match Serve.Protocol.decode_response (Serve.Client.rpc_line conn (Serve.Protocol.encode_request req)) with
    | Ok r -> r
    | Error e -> failwith ("undecodable reply: " ^ e)

  let render (r : Serve.Protocol.analyze_result) = Obs.Json.to_string (Serve.Protocol.result_to_json r)

  (* the paper's claim, as in random-coruns: the observed co-run stays
     within isolation plus every upper-bound model's delta *)
  let sound (r : Serve.Protocol.analyze_result) =
    match r.observed_cycles with
    | None -> false
    | Some observed ->
      List.for_all
        (function
          | Serve.Protocol.Ideal, _ -> true
          | _, Some delta -> observed <= r.isolation_cycles + delta
          | _, None -> false)
        r.bounds

  let setup kind (cfg : cfg) =
    let dir = Filename.concat tmp_root (Printf.sprintf "service-%d" (Unix.getpid ())) in
    rm_rf dir;
    mkdir_p dir;
    let ((pid, wait) as daemon_) = fork_child (daemon ~dir ~jobs:cfg.jobs) in
    try
      let conns = Array.init cfg.jobs (fun _ -> Serve.Client.connect (addr dir)) in
      let reference = Hashtbl.create 16 in
      (* the untimed first operations: the replayed queries, or one fresh
         query per scenario, which also measures the application *)
      let warm = match kind with Hits -> Gen.replay_queries | Fresh -> Gen.fresh ~n:2 ~seed:cfg.seed ~batch:(-1) () in
      List.iter
        (fun q ->
           match rpc conns.(0) (Serve.Protocol.Analyze q) with
           | Serve.Protocol.Result { cache = Serve.Protocol.Computed; result; _ } when sound result ->
             Hashtbl.replace reference (Serve.Engine.digest q) (render result)
           | _ -> failwith "a warm-up query was not computed, or its bounds are unsound")
        warm;
      List.iter
        (fun q ->
           match rpc conns.(0) (Serve.Protocol.Analyze q) with
           | Serve.Protocol.Reject { code = Serve.Protocol.Lint; _ } -> ()
           | _ -> failwith "admission accepted a contender in the application's memory slot")
        (Gen.rejects ~seed:cfg.seed ~batch:(-1));
      {
        kind; seed = cfg.seed; jobs = cfg.jobs; dir; daemon = daemon_; conns; reference; daemon_heap_mb = 0.;
        stopped = false; next_batch = 0;
      }
    with e ->
      (* no daemon outlives a failed set-up; it may have died already *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait ());
      rm_rf dir;
      raise e

  let finish st =
    if not st.stopped then begin
      st.stopped <- true;
      (try ignore (rpc st.conns.(0) (Serve.Protocol.Shutdown "perfbench")) with e -> report_failure "shutdown" e);
      Array.iter Serve.Client.close st.conns;
      st.daemon_heap_mb <- Option.value ~default:0. (Option.bind (snd st.daemon ()) float_of_string_opt);
      rm_rf st.dir
    end

  let request st ~trace klass (q : Serve.Protocol.analyze) conn =
    op ~trace ("serve.rpc_" ^ Gen.klass_to_string klass) (fun () ->
        let line = span "serve.encode" (fun () -> Serve.Protocol.encode_request (Serve.Protocol.Analyze q)) in
        let reply = span "serve.wait" (fun () -> Serve.Client.rpc_line conn line) in
        let resp = span "serve.decode" (fun () -> Serve.Protocol.decode_response reply) in
        match (klass, resp) with
        | Gen.Hit, Ok (Serve.Protocol.Result { cache = Serve.Protocol.Memory; result; _ }) ->
          let r = render result in
          (r, Hashtbl.find_opt st.reference (Serve.Engine.digest q) = Some r)
        | Gen.Fresh, Ok (Serve.Protocol.Result { cache = Serve.Protocol.Computed; result; _ }) ->
          (render result, sound result)
        | Gen.Reject, Ok (Serve.Protocol.Reject { code = Serve.Protocol.Lint; _ }) -> ("reject lint", true)
        | _, Ok _ -> ("unexpected reply: " ^ reply, false)
        | _, Error e -> ("undecodable reply: " ^ e, false))

  (* Sends [reqs] over the J connections, client j sending requests j,
     j + J, ...; gives each request's start and latency (None if the
     exchange failed), what its reply said and whether that was right. *)
  let exchange st ~trace0 klass reqs =
    let reqs = Array.of_list reqs in
    let n = Array.length reqs in
    let lat = Array.make n None and out = Array.make n "" and ok = Array.make n false in
    let client j () =
      let i = ref j in
      while !i < n do
        (match request st ~trace:(trace0 + !i) klass reqs.(!i) st.conns.(j) with
         | (o, good), l ->
           lat.(!i) <- Some l;
           out.(!i) <- o;
           ok.(!i) <- good;
           if not good then Printf.eprintf "perfbench: request %s: %s\n%!" reqs.(!i).Serve.Protocol.id o
         | exception e -> report_failure "request" e);
        i := !i + st.jobs
      done
    in
    List.iter Thread.join (List.init st.jobs (fun j -> Thread.create (client j) ()));
    (lat, out, ok)

  let batch st _ =
    let k = st.next_batch in
    st.next_batch <- k + 1;
    let klass, reqs =
      match st.kind with
      | Hits -> (Gen.Hit, Gen.hits ~seed:st.seed ~batch:k)
      | Fresh -> (Gen.Fresh, Gen.fresh ~seed:st.seed ~batch:k ())
    in
    let lat, out, ok = exchange st ~trace0:(k * 1000) klass reqs in
    let _, _, rejected =
      if st.kind = Hits && Spans.enabled () then
        exchange st ~trace0:((k * 1000) + 900) Gen.Reject (Gen.rejects ~seed:st.seed ~batch:k)
      else ([||], [||], [||])
    in
    let bad a = Array.fold_left (fun acc good -> if good then acc else acc + 1) 0 a in
    {
      lat = List.filter_map Fun.id (Array.to_list lat);
      attempted = Array.length ok + Array.length rejected;
      failed = bad ok + bad rejected;
      outputs = List.mapi (Printf.sprintf "%d %s") (Array.to_list out);
      extra = [];
    }

  let snapshot st =
    match rpc st.conns.(0) (Serve.Protocol.Metrics_req "perfbench") with
    | Serve.Protocol.Metrics_reply { metrics; _ } -> snap_of_json metrics
    | _ -> failwith "no metrics reply"

  let layers _ (t : traced) =
    let f = value t.first in
    let answered = f "serve.query.computed" +. f "serve.query.memory_hits" +. f "serve.query.disk_hits" in
    let codec = Hashtbl.create 256 in
    List.iter
      (fun s ->
         if s.Spans.name = "serve.encode" || s.Spans.name = "serve.decode" then
           Hashtbl.replace codec s.Spans.trace
             (Spans.dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt codec s.Spans.trace)))
      t.spans;
    let stage k = hist_mean t.whole ("serve.stage." ^ k ^ "_s") *. 1e3 in
    [
      ("serve.rpc_hit_ms", median_of "serve.rpc_hit" t.spans);
      ("serve.rpc_fresh_ms", median_of "serve.rpc_fresh" t.spans);
      ("serve.rpc_reject_ms", median_of "serve.rpc_reject" t.spans);
      ("serve.codec_us", Stats.median (Hashtbl.fold (fun _ ms acc -> (ms *. 1e3) :: acc) codec []));
      ("serve.hit_ratio", ratio (f "serve.query.memory_hits" +. f "serve.query.disk_hits") answered);
      ("serve.stage.lint_ms", stage "lint");
      ("serve.stage.isolation_ms", stage "isolation");
      ("serve.stage.bounds_ms", stage "bounds");
      ("serve.stage.corun_ms", stage "corun");
      ( "tcsim.ns_per_event",
        ratio (value t.whole "serve.stage.isolation_s#sum" *. 1e9) (value t.whole "tcsim.events") );
    ]

  let w kind =
    {
      setup = setup kind; batch; snapshot; finish; heap_mb = (fun st -> st.daemon_heap_mb); layers;
      (* Fresh: 162 queries. Hits: 300,000 requests would support p99.9,
         but from run to run the p99.9 of a 50-microsecond request moved
         fourfold with the host's scheduling, so it is p99. *)
      tail_p = (match kind with Hits -> 99. | Fresh -> 90.);
    }
end

let all =
  [
    ("paper-grid", W Paper_grid.w);
    ("random-coruns", W Coruns.w);
    ("exact-bounds", W Exact_bounds.w);
    ("service-hits", W (Service.w Service.Hits));
    ("service-fresh", W (Service.w Service.Fresh));
  ]

(* ------------------------------------------------------------------ *)
(* The run protocol                                                     *)
(* ------------------------------------------------------------------ *)

(* Set-up time of a process that has done nothing yet: the child runs
   the set-up, tears it down and reports the time. Gives the start and
   the time, bracketed by probe samples. *)
let cold_setup (w : _ t) cfg =
  let child () =
    let t0 = now () in
    let st = w.setup cfg in
    let dt = now () -. t0 in
    w.finish st;
    Printf.sprintf "%.9f" dt
  in
  Probe.sample ();
  let start = now () in
  let dt = Option.bind (in_child child) float_of_string_opt in
  Probe.sample ();
  match dt with Some dt -> (start, dt) | None -> failwith "set-up failed in a child process"

(* A run sets up in children until it has at least [min_setups] set-ups
   and has spent [setup_budget_s] on them, then once for real; setup_s
   is the median. Set-ups of 0.05 to 0.4 s varied by 20-50% within one
   run, so the short ones repeat until their median settles. *)
let min_setups = 5
let setup_budget_s = 2.

let cold_setups w cfg =
  let t0 = now () in
  let rec go acc =
    if List.length acc >= min_setups - 1 && now () -. t0 >= setup_budget_s then acc else go (cold_setup w cfg :: acc)
  in
  go []

type phase = {
  batches : (batch * (float * float)) list;  (** with its start and wall time *)
  first : snap;
  whole : snap;
}

(* Batches 0, 1, ... until [seconds] have passed; always at least one.
   Probe samples bracket every batch; [snapshot] brackets the first
   batch and the whole phase. *)
let phase ~batch ~snapshot ~seconds =
  let t0 = now () in
  let timed k =
    let t = now () in
    let b = batch k in
    let wall = now () -. t in
    Probe.sample ();
    (b, (t, wall))
  in
  let s0 = snapshot () in
  Probe.sample ();
  let b0 = timed 0 in
  let s1 = snapshot () in
  let rec go k acc = if now () -. t0 >= seconds then List.rev acc else go (k + 1) (timed k :: acc) in
  let batches = go 1 [ b0 ] in
  let s2 = snapshot () in
  { batches; first = diff s0 s1; whole = diff s0 s2 }

(* Each operation's latency, scaled by [scale] over its interval *)
let lat scale p =
  List.concat_map (fun ((b : batch), _) -> List.map (fun (t0, ms) -> ms *. scale t0 (t0 +. (ms /. 1e3))) b.lat) p.batches

let ops p = List.fold_left (fun acc ((b : batch), _) -> acc + List.length b.lat) 0 p.batches
let attempts p = List.fold_left (fun acc ((b : batch), _) -> acc + b.attempted) 0 p.batches
let failures p = List.fold_left (fun acc ((b : batch), _) -> acc + b.failed) 0 p.batches

(* Operations per second of batch time, each batch's time scaled *)
let ops_per_s scale p =
  let busy = List.fold_left (fun acc (_, (t, wall)) -> acc +. (wall *. scale t (t +. wall))) 0. p.batches in
  ratio (float_of_int (ops p)) busy

(* the end-to-end numbers of a run *)
type e2e = {
  setup_s : float list;
  lat_ms : float list;  (** untraced operations *)
  ops_per_s : float;  (** untraced *)
}

type outcome = {
  scaled : e2e;  (** at the probe's reference host speed *)
  host : e2e;  (** as the host ran *)
  tail_p : float;  (** the percentile op_tail_ms reports *)
  attempted : int;
  failed : int;
  digest : string;  (** of the warm-up batch's outputs *)
  layers : (string * float) list;  (** empty unless traced *)
  traced_ops : int;
  spans : Spans.span list;
  probe : Probe.timeline;
}

(* Counts read straight from the registry over the first traced batch,
   and the ratios derived from them; workload layers may add to or
   override these. *)
let counter_layers ~first ~whole =
  let f = value first in
  let grants =
    List.fold_left
      (fun acc (k, v) ->
         if String.starts_with ~prefix:"sri." k && String.ends_with ~suffix:".grants" k then acc +. v else acc)
      0. first
  in
  let counters =
    [
      "tcsim.runs"; "tcsim.events"; "tcsim.cycles"; "run_cache.hits"; "run_cache.misses"; "solve_cache.hits";
      "solve_cache.misses"; "ilp.bb.nodes"; "ilp.simplex.pivots"; "ilp.presolve.calls"; "ilp.bb.node_limit_hits";
      "ilp.simplex.fastpath_fallbacks"; "ilp.simplex.dense_fallbacks"; "pool.tasks"; "runtime.dag.nodes";
      "runtime.steals"; "serve.query.computed"; "serve.query.memory_hits"; "serve.query.disk_hits"; "serve.rejects";
    ]
  in
  List.map (fun k -> (k, f k)) counters
  @ [
    ("sri.grants", grants);
    ("tcsim.events_per_kcycle", ratio (f "tcsim.events" *. 1e3) (f "tcsim.cycles"));
    ("run_cache.hit_ratio", ratio (f "run_cache.hits") (f "run_cache.hits" +. f "run_cache.misses"));
    ("solve_cache.hit_ratio", ratio (f "solve_cache.hits") (f "solve_cache.hits" +. f "solve_cache.misses"));
    ("ilp.pivots_per_node", ratio (f "ilp.simplex.pivots") (f "ilp.bb.nodes"));
    ("pool.queue_wait_us", hist_mean whole "pool.queue_wait_seconds" *. 1e6);
  ]

let run (W w) cfg ~traced =
  let setups = cold_setups w cfg in
  Probe.sample ();
  let t0 = now () in
  let st = w.setup cfg in
  let setups = (t0, now () -. t0) :: setups in
  Fun.protect ~finally:(fun () -> w.finish st) @@ fun () ->
  (* an untimed warm-up batch: the first batch of a process ran up to
     60% slower than the next ones, and a run has as few as two *)
  let warm = w.batch st 0 in
  let seconds = if traced then cfg.seconds /. 2. else cfg.seconds in
  let untraced =
    phase ~batch:(w.batch st) ~snapshot:(fun () -> []) ~seconds
  in
  let traced_phase =
    if not traced then None
    else begin
      Spans.enable ();
      Some (phase ~batch:(w.batch st) ~snapshot:(fun () -> w.snapshot st) ~seconds)
    end
  in
  w.finish st;
  let tl = Probe.timeline () in
  let scale = Probe.scale tl in
  Spans.rescale scale;
  let digest = Digest.to_hex (Digest.string (String.concat "\n" warm.outputs)) in
  let e2e scale =
    {
      setup_s = List.map (fun (t, dt) -> dt *. scale t (t +. dt)) setups;
      lat_ms = lat scale untraced;
      ops_per_s = ops_per_s scale untraced;
    }
  in
  let phases = untraced :: Option.to_list traced_phase in
  let layers =
    match traced_phase with
    | None -> []
    | Some p ->
      let extra =
        List.fold_left
          (fun acc ((b : batch), _) ->
             List.fold_left
               (fun acc (k, v) -> (k, v +. Option.value ~default:0. (List.assoc_opt k acc)) :: List.remove_assoc k acc)
               acc b.extra)
          [] p.batches
      in
      let t = { first = p.first; whole = p.whole; spans = Spans.spans (); extra; ops = ops p } in
      let specific = w.layers st t in
      List.filter (fun (k, _) -> not (List.mem_assoc k specific)) (counter_layers ~first:p.first ~whole:p.whole)
      @ specific
      @ [
        ("obs.trace_overhead", ratio (Stats.median (lat scale p)) (Stats.median (lat scale untraced)));
        ("gc.peak_heap_mb", w.heap_mb st);
        ("host.slowdown", Probe.median_slowdown tl);
      ]
  in
  {
    scaled = e2e scale;
    host = e2e (fun _ _ -> 1.);
    tail_p = w.tail_p;
    attempted = List.fold_left (fun acc p -> acc + attempts p) warm.attempted phases;
    failed = List.fold_left (fun acc p -> acc + failures p) warm.failed phases;
    digest;
    layers;
    traced_ops = (match traced_phase with Some p -> ops p | None -> 0);
    spans = (if traced then Spans.spans () else []);
    probe = tl;
  }
