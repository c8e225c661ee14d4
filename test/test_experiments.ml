(* Integration tests: the full paper reproduction pipeline. Each test
   regenerates (a slice of) a table or figure and asserts the paper's
   qualitative claims hold: soundness of all predictions, fTC >> ILP,
   ILP adapting to contender load, Table 2/6 signatures. *)

open Platform

let fig4_rows = lazy (Experiments.Figure4.run_all ())

let test_figure4_soundness () =
  (* "In all experiments our model predictions upperbound the observed
     multicore execution time." *)
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s sound" r.Experiments.Figure4.scenario
            (Workload.Load_gen.level_to_string r.Experiments.Figure4.load))
         true
         (Experiments.Figure4.sound r))
    (Lazy.force fig4_rows)

let test_figure4_ilp_tighter_than_ftc () =
  (* "In both cases, contention cycles are below half of those for fTC
     bounds" — checked for the H-Load rows (and ILP < fTC for all). *)
  List.iter
    (fun r ->
       let ftc_delta = r.Experiments.Figure4.ftc.Mbta.Wcet.contention_cycles in
       let ilp_delta = r.Experiments.Figure4.ilp.Mbta.Wcet.contention_cycles in
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s ILP (%d) < fTC (%d)" r.Experiments.Figure4.scenario
            (Workload.Load_gen.level_to_string r.Experiments.Figure4.load)
            ilp_delta ftc_delta)
         true
         (ilp_delta < ftc_delta);
       if r.Experiments.Figure4.load = Workload.Load_gen.High then
         Alcotest.(check bool) "H-Load: ILP below ~half of fTC" true
           (ilp_delta * 2 <= ftc_delta + (ftc_delta / 4)))
    (Lazy.force fig4_rows)

let test_figure4_ilp_adapts_to_load () =
  (* "our ILP model adapts to the load introduced by the contenders, while
     the fTC model is unable to benefit from this information" *)
  List.iter
    (fun scenario_name ->
       let rows =
         List.filter
           (fun r -> r.Experiments.Figure4.scenario = scenario_name)
           (Lazy.force fig4_rows)
       in
       let ratio load =
         (List.find (fun r -> r.Experiments.Figure4.load = load) rows)
           .Experiments.Figure4.ilp.Mbta.Wcet.ratio
       in
       let h = ratio Workload.Load_gen.High
       and m = ratio Workload.Load_gen.Medium
       and l = ratio Workload.Load_gen.Low in
       Alcotest.(check bool)
         (Printf.sprintf "%s: ILP ratios decrease H(%.2f) > M(%.2f) > L(%.2f)"
            scenario_name h m l)
         true
         (h > m && m > l);
       let ftc_ratios =
         List.map (fun r -> r.Experiments.Figure4.ftc.Mbta.Wcet.ratio) rows
       in
       List.iter
         (fun f ->
            Alcotest.(check (float 1e-9)) "fTC constant across loads" (List.hd ftc_ratios) f)
         ftc_ratios)
    [ "scenario1"; "scenario2" ]

let test_figure4_ideal_below_ilp () =
  List.iter
    (fun r ->
       Alcotest.(check bool) "ideal (full info) below ILP (counter info)" true
         (r.Experiments.Figure4.ideal_delta
          <= r.Experiments.Figure4.ilp.Mbta.Wcet.contention_cycles))
    (Lazy.force fig4_rows)

let test_table2_regeneration () =
  Alcotest.(check bool) "calibration regenerates Table 2" true
    (Experiments.Table2.matches_reference (Experiments.Table2.run ()) Latency.default)

let test_table6_signatures () =
  let entries = Experiments.Table6.run () in
  let find scen core =
    (List.find
       (fun e -> e.Experiments.Table6.scenario = scen && e.Experiments.Table6.core = core)
       entries)
      .Experiments.Table6.counters
  in
  let s1a = find "scenario1" 1 and s1b = find "scenario1" 2 in
  let s2a = find "scenario2" 1 and s2b = find "scenario2" 2 in
  (* scenario 1: no cacheable data at all *)
  List.iter
    (fun (name, c) ->
       Alcotest.(check int) (name ^ " DMC=0") 0 c.Counters.dcache_miss_clean;
       Alcotest.(check int) (name ^ " DMD=0") 0 c.Counters.dcache_miss_dirty)
    [ ("s1 app", s1a); ("s1 hload", s1b) ];
  (* scenario 2: dirty misses zero, clean misses small and positive *)
  List.iter
    (fun (name, c) ->
       Alcotest.(check int) (name ^ " DMD=0") 0 c.Counters.dcache_miss_dirty;
       Alcotest.(check bool) (name ^ " small DMC") true
         (c.Counters.dcache_miss_clean > 0 && c.Counters.dcache_miss_clean < 1000))
    [ ("s2 app", s2a); ("s2 hload", s2b) ];
  (* cross-scenario shape: code traffic grows, data stalls collapse *)
  Alcotest.(check bool) "PM grows in scenario 2" true
    (s2a.Counters.pcache_miss > s1a.Counters.pcache_miss);
  Alcotest.(check bool) "DS collapses in scenario 2" true
    (s2a.Counters.dmem_stall < s1a.Counters.dmem_stall / 2);
  (* contender H-Load produces more traffic than the application *)
  Alcotest.(check bool) "H-Load PM exceeds app PM" true
    (s1b.Counters.pcache_miss > s1a.Counters.pcache_miss)

let test_ablation_contender_info () =
  (* A1 repeats the application program across load levels, and every
     repeat is a run the run cache already holds: the sweep must replay
     them rather than simulate *)
  let hits0 = (Runtime.Run_cache.stats ()).Runtime.Run_cache.hits in
  let rows = Experiments.Ablations.a1_contender_info () in
  Alcotest.(check bool) "run_cache hits > 0 on A1" true
    ((Runtime.Run_cache.stats ()).Runtime.Run_cache.hits - hits0 > 0);
  List.iter
    (fun r ->
       Alcotest.(check bool) "info never hurts" true
         (r.Experiments.Ablations.with_info <= r.Experiments.Ablations.without_info);
       Alcotest.(check bool) "ILP (even blind) at most fTC" true
         (r.Experiments.Ablations.without_info <= r.Experiments.Ablations.ftc_delta))
    rows;
  (* the blind bound cannot depend on the contender *)
  List.iter
    (fun scen ->
       let blind =
         List.filter_map
           (fun r ->
              if r.Experiments.Ablations.a1_scenario = scen then
                Some r.Experiments.Ablations.without_info
              else None)
           rows
       in
       List.iter
         (fun v -> Alcotest.(check int) "blind bound constant" (List.hd blind) v)
         blind)
    [ "scenario1"; "scenario2" ]

let test_ablation_equality_modes () =
  let rows = Experiments.Ablations.a2_equality_modes () in
  List.iter
    (fun r ->
       match r.Experiments.Ablations.mode with
       | Contention.Ilp_ptac.Upper ->
         Alcotest.(check bool) "Upper feasible" true (r.Experiments.Ablations.delta <> None)
       | Contention.Ilp_ptac.Exact ->
         Alcotest.(check bool) "Exact infeasible on real readings" true
           (r.Experiments.Ablations.delta = None)
       | Contention.Ilp_ptac.Window -> ())
    rows

let test_ablation_multi_contender () =
  List.iter
    (fun scenario ->
       let r = Experiments.Ablations.a3_multi_contender scenario in
       match r.Experiments.Ablations.bound with
       | None -> Alcotest.fail "two-contender bound infeasible"
       | Some b ->
         Alcotest.(check bool)
           (Printf.sprintf "%s two-contender bound sound (%d + %d >= %d)"
              r.Experiments.Ablations.a3_scenario r.Experiments.Ablations.isolation_cycles b
              r.Experiments.Ablations.observed_two_contenders)
           true
           (r.Experiments.Ablations.isolation_cycles + b
            >= r.Experiments.Ablations.observed_two_contenders);
         Alcotest.(check int) "two per-contender terms" 2
           (List.length r.Experiments.Ablations.per_contender))
    [ Scenario.scenario1; Scenario.scenario2 ]

let test_ablation_fsb () =
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s: FSB (%d) >= crossbar (%d)"
            r.Experiments.Ablations.a4_scenario
            (Workload.Load_gen.level_to_string r.Experiments.Ablations.a4_load)
            r.Experiments.Ablations.fsb_delta r.Experiments.Ablations.crossbar_delta)
         true
         (r.Experiments.Ablations.fsb_delta >= r.Experiments.Ablations.crossbar_delta))
    (Experiments.Ablations.a4_fsb ())

let test_figure4_coruns_read_isolation_scripts () =
  (* [run_row] runs a cell's co-run after its two isolations, so from
     cold caches the co-run reads the scripts they compiled from the
     script memo *)
  let hits = Obs.Metrics.counter ~timing:true "tcsim.script_memo.hits" in
  Runtime.Run_cache.clear ();
  let hits0 = Obs.Metrics.value hits in
  let rows = Experiments.Figure4.run_all ~jobs:1 () in
  Alcotest.(check bool) "rows unchanged" true (rows = Lazy.force fig4_rows);
  Alcotest.(check bool) "tcsim.script_memo.hits > 0 on Figure 4" true
    (Obs.Metrics.value hits - hits0 > 0)

let test_parallel_determinism () =
  (* the pool must not change any result: every experiment's output at
     jobs 2/4/8 is structurally equal to its sequential jobs=1 output; at
     jobs=2 one worker and the helping caller make up the pool *)
  let invariant name run =
    let seq = run 1 in
    List.iter
      (fun jobs ->
         Alcotest.(check bool)
           (Printf.sprintf "%s identical at jobs=%d" name jobs)
           true
           (seq = run jobs))
      [ 2; 4; 8 ]
  in
  invariant "figure4 rows" (fun jobs -> Experiments.Figure4.run_all ~jobs ());
  invariant "table6 entries" (fun jobs -> Experiments.Table6.run ~jobs ());
  invariant "ablation A1 rows" (fun jobs ->
      Experiments.Ablations.a1_contender_info ~jobs ());
  invariant "ablation A2 rows" (fun jobs ->
      Experiments.Ablations.a2_equality_modes ~jobs ());
  List.iter
    (fun scenario ->
       invariant
         ("ablation A3 on " ^ scenario.Scenario.name)
         (fun jobs -> Experiments.Ablations.a3_multi_contender ~jobs scenario))
    [ Scenario.scenario1; Scenario.scenario2 ];
  invariant "ablation A4 rows" (fun jobs -> Experiments.Ablations.a4_fsb ~jobs ());
  invariant "priority study" (fun jobs ->
      Experiments.Priority_study.run ~jobs ())

let test_ablation_a1_golden () =
  (* A1 on four domains against the checked-in table *)
  let golden =
    let ic = open_in "golden/ablation_a1.txt" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check string) "ablation A1 = golden" golden
    (Format.asprintf "%a" Experiments.Ablations.pp_a1
       (Experiments.Ablations.a1_contender_info ~jobs:4 ()))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_static_tables_render () =
  (* the static tables must render without raising and contain key rows *)
  let t3 = Format.asprintf "%a" Experiments.Static_tables.pp_table3 () in
  Alcotest.(check bool) "table3 mentions Data n$" true (contains t3 "Data n$");
  let t4 = Format.asprintf "%a" Experiments.Static_tables.pp_table4 () in
  Alcotest.(check bool) "table4 mentions PMEM_STALL" true (contains t4 "PMEM_STALL");
  let t5 = Format.asprintf "%a" Experiments.Static_tables.pp_table5 () in
  Alcotest.(check bool) "table5 mentions scenario1" true (contains t5 "scenario1");
  Alcotest.(check bool) "table5 mentions PCACHE_MISS sums" true (contains t5 "PCACHE_MISS")

let test_portability () =
  List.iter
    (fun r ->
       let name = r.Experiments.Portability.variant.Platform.Variants.name in
       Alcotest.(check bool) (name ^ " calibration recovered") true
         r.Experiments.Portability.calibration_ok;
       Alcotest.(check bool) (name ^ " figure4 row sound") true
         (Experiments.Figure4.sound r.Experiments.Portability.figure4_row);
       let row = r.Experiments.Portability.figure4_row in
       Alcotest.(check bool) (name ^ " ILP below fTC") true
         (row.Experiments.Figure4.ilp.Mbta.Wcet.contention_cycles
          < row.Experiments.Figure4.ftc.Mbta.Wcet.contention_cycles))
    (Experiments.Portability.run ())

let test_priority_study () =
  List.iter
    (fun scenario ->
       let r = Experiments.Priority_study.run ~scenario () in
       Alcotest.(check bool)
         (r.Experiments.Priority_study.scenario ^ " bounds sound") true
         (Experiments.Priority_study.sound r);
       (* prioritising the application cannot make it slower *)
       Alcotest.(check bool) "priority helps" true
         (r.Experiments.Priority_study.observed_prioritised
          <= r.Experiments.Priority_study.observed_same_class);
       (* and caps the per-request wait at one (worst-case) service *)
       Alcotest.(check bool) "single-service blocking" true
         (r.Experiments.Priority_study.max_wait_prioritised
          <= Platform.Latency.worst_latency ~dirty:true Platform.Latency.default
               Platform.Op.Data))
    [ Scenario.scenario1; Scenario.scenario2 ]

let test_realistic () =
  let r = Experiments.Realistic.run () in
  Alcotest.(check bool) "bounds sound" true (Experiments.Realistic.sound r);
  (* the paper's remark: realistic tasks sit far below the stress
     benchmark's 30-40% contention; ours lands in the ~10% band *)
  let ilp_pct = (r.Experiments.Realistic.ilp.Mbta.Wcet.ratio -. 1.0) *. 100. in
  let stress_pct = (r.Experiments.Realistic.stress_ilp_ratio -. 1.0) *. 100. in
  Alcotest.(check bool)
    (Printf.sprintf "realistic %.1f%% well below stress %.1f%%" ilp_pct stress_pct)
    true
    (ilp_pct < 15. && ilp_pct < stress_pct /. 2.)

let test_dma_study () =
  let r = Experiments.Dma_study.run () in
  Alcotest.(check bool) "bound covers observed" true (Experiments.Dma_study.sound r);
  Alcotest.(check bool) "DMA contributes a positive bound" true
    (r.Experiments.Dma_study.dma_delta > 0);
  Alcotest.(check bool) "observed shows real interference" true
    (r.Experiments.Dma_study.observed_cycles > r.Experiments.Dma_study.isolation_cycles)

let () =
  Alcotest.run "experiments"
    [
      ( "figure4",
        [
          Alcotest.test_case "all predictions sound" `Slow test_figure4_soundness;
          Alcotest.test_case "ILP tighter than fTC" `Slow test_figure4_ilp_tighter_than_ftc;
          Alcotest.test_case "ILP adapts to load" `Slow test_figure4_ilp_adapts_to_load;
          Alcotest.test_case "ideal below ILP" `Slow test_figure4_ideal_below_ilp;
          Alcotest.test_case "co-runs read isolation scripts" `Slow
            test_figure4_coruns_read_isolation_scripts;
          Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
        ] );
      ( "tables",
        [
          Alcotest.test_case "Table 2 regeneration" `Quick test_table2_regeneration;
          Alcotest.test_case "Table 6 signatures" `Quick test_table6_signatures;
          Alcotest.test_case "static tables render" `Quick test_static_tables_render;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "A1 contender info" `Slow test_ablation_contender_info;
          Alcotest.test_case "A2 equality modes" `Slow test_ablation_equality_modes;
          Alcotest.test_case "A3 multi-contender" `Slow test_ablation_multi_contender;
          Alcotest.test_case "A4 FSB reduction" `Slow test_ablation_fsb;
          Alcotest.test_case "A1 matches golden table" `Slow test_ablation_a1_golden;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "portability (Sec. 4.3)" `Slow test_portability;
          Alcotest.test_case "priority classes" `Slow test_priority_study;
          Alcotest.test_case "realistic use case" `Slow test_realistic;
          Alcotest.test_case "DMA background traffic" `Slow test_dma_study;
        ] );
    ]
