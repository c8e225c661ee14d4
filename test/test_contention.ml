(* Tests for the contention models: hand-computed instances of the ideal
   (Eq. 1), fTC (Eqs. 4, 6-8) and ILP-PTAC (Eqs. 9-23) models, white-box
   checks on the generated ILP, and property tests on randomly generated
   task pairs where the simulator provides the ground truth the bounds
   must dominate. *)

open Platform

let lat = Latency.default

let counters ?(ps = 0) ?(ds = 0) ?(pm = 0) ?(dmc = 0) ?(dmd = 0) () =
  {
    Counters.ccnt = ps + ds + 1000;
    pmem_stall = ps;
    dmem_stall = ds;
    pcache_miss = pm;
    dcache_miss_clean = dmc;
    dcache_miss_dirty = dmd;
  }

let profile l = Access_profile.make l

(* --- ideal model (Eq. 1) ----------------------------------------------------- *)

let test_ideal_hand_computed () =
  (* a: 10 code to pf0, 5 data to lmu; b: 3 code to pf0, 9 data to lmu
     delta = min(10,3)*16 + min(5,9)*11 = 48 + 55 = 103 *)
  let a = profile [ ((Target.Pf0, Op.Code), 10); ((Target.Lmu, Op.Data), 5) ] in
  let b = profile [ ((Target.Pf0, Op.Code), 3); ((Target.Lmu, Op.Data), 9) ] in
  Alcotest.(check int) "eq1" 103 (Contention.Ideal.contention_bound ~latency:lat ~a ~b ())

let test_ideal_disjoint_targets () =
  let a = profile [ ((Target.Pf0, Op.Code), 100) ] in
  let b = profile [ ((Target.Pf1, Op.Code), 100) ] in
  Alcotest.(check int) "no same-target conflicts" 0
    (Contention.Ideal.contention_bound ~latency:lat ~a ~b ())

let test_ideal_dirty_latency () =
  let a = profile [ ((Target.Lmu, Op.Data), 4) ] in
  let b = profile [ ((Target.Lmu, Op.Data), 10) ] in
  Alcotest.(check int) "clean" (4 * 11)
    (Contention.Ideal.contention_bound ~latency:lat ~a ~b ());
  Alcotest.(check int) "dirty" (4 * 21)
    (Contention.Ideal.contention_bound ~dirty:true ~latency:lat ~a ~b ())

(* --- fTC model (Eqs. 4, 6-8) --------------------------------------------------- *)

let test_ftc_hand_computed () =
  (* PS = 60 -> n_co = 10; DS = 100 -> n_da = 10
     lco_max = max latency on pf0/pf1/lmu over both ops = 16
     lda_max = max(lco_max, l_dfl_da) = 43
     delta = 10*16 + 10*43 = 590 *)
  let r = Contention.Ftc.contention_bound ~latency:lat ~a:(counters ~ps:60 ~ds:100 ()) () in
  Alcotest.(check int) "n_co" 10 r.Contention.Ftc.n_co;
  Alcotest.(check int) "n_da" 10 r.Contention.Ftc.n_da;
  Alcotest.(check int) "l_co_max (Eq. 6)" 16 r.Contention.Ftc.l_co_max;
  Alcotest.(check int) "l_da_max (Eq. 7)" 43 r.Contention.Ftc.l_da_max;
  Alcotest.(check int) "delta (Eq. 8)" 590 r.Contention.Ftc.delta

let test_ftc_dirty () =
  (* with dirty LMU misses considered, lco_max = 21 (lmu dirty) *)
  let r =
    Contention.Ftc.contention_bound ~dirty:true ~latency:lat
      ~a:(counters ~ps:60 ~ds:0 ()) ()
  in
  Alcotest.(check int) "dirty lco_max" 21 r.Contention.Ftc.l_co_max;
  Alcotest.(check int) "delta" (10 * 21) r.Contention.Ftc.delta

let test_ftc_exact_code_refinement () =
  (* refined fTC replaces the stall-derived code count with PCACHE_MISS *)
  let a = counters ~ps:600 ~ds:0 ~pm:42 () in
  let plain = Contention.Ftc.contention_bound ~latency:lat ~a () in
  let refined = Contention.Ftc.contention_bound ~exact_code_count:42 ~latency:lat ~a () in
  Alcotest.(check int) "plain n_co" 100 plain.Contention.Ftc.n_co;
  Alcotest.(check int) "refined n_co" 42 refined.Contention.Ftc.n_co;
  Alcotest.(check bool) "refinement tightens" true
    (refined.Contention.Ftc.delta < plain.Contention.Ftc.delta)

(* --- ILP-PTAC: hand-checkable synthetic instances ------------------------------ *)

let exact_options =
  { Contention.Ilp_ptac.default_options with Contention.Ilp_ptac.mip_slack = 0 }

let solve ?(options = exact_options) ?(scenario = Scenario.unrestricted) a b =
  Contention.Ilp_ptac.contention_bound ~options ~latency:lat ~scenario ~a ~b ()

let test_ilp_idle_contender () =
  match solve (counters ~ps:600 ~ds:500 ()) (counters ()) with
  | Some r -> Alcotest.(check int) "no contender traffic, no contention" 0 r.Contention.Ilp_ptac.delta
  | None -> Alcotest.fail "unexpected infeasibility"

let test_ilp_idle_task () =
  match solve (counters ()) (counters ~ps:600 ~ds:500 ()) with
  | Some r -> Alcotest.(check int) "task makes no requests" 0 r.Contention.Ilp_ptac.delta
  | None -> Alcotest.fail "unexpected infeasibility"

let test_ilp_single_pair_hand_computed () =
  (* Scenario 1 tailoring, only code on pf: a has PM=10 (PS=60 exactly
     streaming), b has PM=4 (PS=24). Only pf0/pf1 code conflicts possible:
     interference <= min over the split, but the solver picks the split
     maximising conflicts: all on one bank: 4 conflicts x 16 = 64. *)
  let a = counters ~ps:60 ~ds:0 ~pm:10 () in
  let b = counters ~ps:24 ~ds:0 ~pm:4 () in
  match solve ~scenario:Scenario.scenario1 a b with
  | Some r -> Alcotest.(check int) "4 x 16" 64 r.Contention.Ilp_ptac.delta
  | None -> Alcotest.fail "unexpected infeasibility"

let test_ilp_caps_at_task_traffic () =
  (* a tiny task against a huge contender: bound saturates at a's capacity *)
  let a = counters ~ps:60 ~ds:0 ~pm:10 () in
  let b = counters ~ps:60000 ~ds:0 ~pm:10000 () in
  match solve ~scenario:Scenario.scenario1 a b with
  | Some r ->
    Alcotest.(check int) "10 requests x 16" 160 r.Contention.Ilp_ptac.delta
  | None -> Alcotest.fail "unexpected infeasibility"

let test_ilp_respects_zero_pairs () =
  (* scenario 1 zeroes pf data / lmu code / dfl: chosen PTACs obey *)
  let a = counters ~ps:600 ~ds:500 ~pm:50 () in
  let b = counters ~ps:600 ~ds:500 ~pm:50 () in
  match solve ~scenario:Scenario.scenario1 a b with
  | Some r ->
    List.iter
      (fun (t, o) ->
         Alcotest.(check int)
           (Printf.sprintf "a zero (%s,%s)" (Target.to_string t) (Op.to_string o))
           0
           (Access_profile.get r.Contention.Ilp_ptac.a_counts t o);
         Alcotest.(check int)
           (Printf.sprintf "b zero (%s,%s)" (Target.to_string t) (Op.to_string o))
           0
           (Access_profile.get r.Contention.Ilp_ptac.b_counts t o))
      (Scenario.zero_pairs Scenario.scenario1)
  | None -> Alcotest.fail "unexpected infeasibility"

let test_ilp_pm_equality_respected () =
  let a = counters ~ps:600 ~ds:500 ~pm:50 () in
  let b = counters ~ps:600 ~ds:500 ~pm:30 () in
  match solve ~scenario:Scenario.scenario1 a b with
  | Some r ->
    let code_sum p =
      Access_profile.get p Target.Pf0 Op.Code + Access_profile.get p Target.Pf1 Op.Code
    in
    Alcotest.(check int) "a code sum = PM_a" 50 (code_sum r.Contention.Ilp_ptac.a_counts);
    Alcotest.(check int) "b code sum = PM_b" 30 (code_sum r.Contention.Ilp_ptac.b_counts)
  | None -> Alcotest.fail "unexpected infeasibility"

let test_ilp_contender_info_tightens () =
  let a = counters ~ps:6000 ~ds:5000 ~pm:500 () in
  let small_b = counters ~ps:60 ~ds:50 ~pm:5 () in
  let with_info = Option.get (solve ~scenario:Scenario.scenario1 a small_b) in
  let without =
    Option.get
      (solve
         ~options:
           { exact_options with Contention.Ilp_ptac.use_contender_info = false }
         ~scenario:Scenario.scenario1 a small_b)
  in
  Alcotest.(check bool)
    (Printf.sprintf "info tightens (%d < %d)" with_info.Contention.Ilp_ptac.delta
       without.Contention.Ilp_ptac.delta)
    true
    (with_info.Contention.Ilp_ptac.delta < without.Contention.Ilp_ptac.delta)

let test_ilp_monotone_in_contender () =
  let a = counters ~ps:6000 ~ds:5000 ~pm:500 () in
  let deltas =
    List.map
      (fun k ->
         let b = counters ~ps:(60 * k) ~ds:(50 * k) ~pm:(6 * k) () in
         (Option.get (solve ~scenario:Scenario.scenario1 a b)).Contention.Ilp_ptac.delta)
      [ 1; 4; 16; 64 ]
  in
  let rec monotone = function
    | x :: (y :: _ as rest) -> x <= y && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "delta non-decreasing in contender load" true (monotone deltas)

let test_ilp_equality_modes_on_consistent_readings () =
  (* counters crafted to be exactly representable: 10 code requests to pf
     at cs 6 (PS = 60) and 10 data to lmu at cs 10 (DS = 100): Exact and
     Window feasible, all three modes agree *)
  let a = counters ~ps:60 ~ds:100 ~pm:10 () in
  let b = counters ~ps:60 ~ds:100 ~pm:10 () in
  let deltas =
    List.map
      (fun mode ->
         match
           solve ~options:{ exact_options with Contention.Ilp_ptac.equality_mode = mode }
             ~scenario:Scenario.scenario1 a b
         with
         | Some r -> r.Contention.Ilp_ptac.delta
         | None -> -1)
      [ Contention.Ilp_ptac.Exact; Contention.Ilp_ptac.Window; Contention.Ilp_ptac.Upper ]
  in
  match deltas with
  | [ e; w; u ] ->
    Alcotest.(check bool) "exact feasible" true (e >= 0);
    Alcotest.(check int) "exact = window" e w;
    Alcotest.(check bool) "upper at least as loose" true (u >= e)
  | _ -> assert false

let test_ilp_mip_slack_bracket () =
  let a = counters ~ps:2753 ~ds:863 ~pm:458 ~dmc:20 () in
  let b = counters ~ps:1404 ~ds:428 ~pm:233 ~dmc:20 () in
  let run slack =
    (Option.get
       (solve ~options:{ exact_options with Contention.Ilp_ptac.mip_slack = slack }
          ~scenario:Scenario.scenario2 a b))
      .Contention.Ilp_ptac.delta
  in
  let exact = run 0 and slacked = run 16 in
  Alcotest.(check bool)
    (Printf.sprintf "exact %d <= slacked %d <= exact+16" exact slacked)
    true
    (exact <= slacked && slacked <= exact + 16)

let test_ilp_exact_mode_infeasible_on_real_readings () =
  (* real readings include above-minimum stalls; the literal equality of
     Eqs. 20-23 then contradicts the exact PCACHE_MISS tailoring *)
  let app = Workload.Control_loop.app Workload.Control_loop.S1 in
  let a = (Mbta.Measurement.isolation app).Mbta.Measurement.counters in
  match
    solve ~options:{ exact_options with Contention.Ilp_ptac.equality_mode = Contention.Ilp_ptac.Exact }
      ~scenario:Scenario.scenario1 a a
  with
  | None -> ()
  | Some _ -> Alcotest.fail "expected infeasibility under Exact"

let test_ilp_build_model_lookup () =
  let model, lookup =
    Contention.Ilp_ptac.build_model ~latency:lat ~scenario:Scenario.scenario1
      ~a:(counters ~ps:60 ~ds:50 ~pm:5 ())
      ~b:(counters ~ps:60 ~ds:50 ~pm:5 ())
      ()
  in
  (* 3 roles x 7 admissible pairs *)
  Alcotest.(check int) "21 variables" 21 (Ilp.Model.num_vars model);
  List.iter
    (fun name -> ignore (lookup name))
    [ "na_pf0_co"; "nb_lmu_da"; "nba_dfl_da" ];
  (try
     ignore (lookup "nonsense");
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

(* --- priority blocking bound ------------------------------------------------------ *)

let test_priority_blocking_hand_computed () =
  (* PS = 60 -> n_co = 10; DS = 100 -> n_da = 10
     blocking = one in-service transaction per request: 10*16 + 10*43 *)
  let r =
    Contention.Priority.contention_bound ~latency:lat ~a:(counters ~ps:60 ~ds:100 ()) ()
  in
  Alcotest.(check int) "blocking_co" 16 r.Contention.Priority.blocking_co;
  Alcotest.(check int) "blocking_da" 43 r.Contention.Priority.blocking_da;
  Alcotest.(check int) "delta" 590 r.Contention.Priority.delta

let test_priority_equals_ftc_shape () =
  (* numerically the blocking bound matches the single-contender fTC bound;
     its added value is independence from the number of contenders *)
  let a = counters ~ps:1234 ~ds:5678 () in
  let p = Contention.Priority.contention_bound ~latency:lat ~a () in
  let f = Contention.Ftc.contention_bound ~latency:lat ~a () in
  Alcotest.(check int) "same formula" f.Contention.Ftc.delta p.Contention.Priority.delta

(* --- multi-contender and FSB ----------------------------------------------------- *)

let test_multi_is_sum () =
  let a = counters ~ps:6000 ~ds:5000 ~pm:500 () in
  let b1 = counters ~ps:600 ~ds:500 ~pm:50 () in
  let b2 = counters ~ps:300 ~ds:200 ~pm:20 () in
  let single b =
    (Contention.Ilp_ptac.contention_bound_exn ~options:exact_options ~latency:lat
       ~scenario:Scenario.scenario1 ~a ~b ())
      .Contention.Ilp_ptac.delta
  in
  match
    Contention.Multi.contention_bound ~options:exact_options ~latency:lat
      ~scenario:Scenario.scenario1 ~a ~contenders:[ b1; b2 ] ()
  with
  | Some r ->
    Alcotest.(check int) "sum of singles" (single b1 + single b2) r.Contention.Multi.delta
  | None -> Alcotest.fail "unexpected infeasibility"

let test_fsb_hand_computed () =
  (* a: n_co = 10, n_da = 10 (PS=60, DS=100); b: n_co = 5 (PS=30), n_da = 2
     (DS=20): pair 2 data at 43, then 5 code at 16 -> 86 + 80 = 166 *)
  let r =
    Contention.Fsb.contention_bound ~latency:lat
      ~a:(counters ~ps:60 ~ds:100 ())
      ~b:(counters ~ps:30 ~ds:20 ())
      ()
  in
  Alcotest.(check int) "paired data" 2 r.Contention.Fsb.paired_data;
  Alcotest.(check int) "paired code" 5 r.Contention.Fsb.paired_code;
  Alcotest.(check int) "delta" 166 r.Contention.Fsb.delta

let test_fsb_saturates () =
  (* contender bigger than the task: every task request delayed once *)
  let r =
    Contention.Fsb.contention_bound ~latency:lat
      ~a:(counters ~ps:60 ~ds:0 ())
      ~b:(counters ~ps:0 ~ds:10000 ())
      ()
  in
  Alcotest.(check int) "10 task requests paired with data" 10 r.Contention.Fsb.paired_data;
  Alcotest.(check int) "delta" (10 * 43) r.Contention.Fsb.delta

let test_fsb_dominates_crossbar () =
  (* the single-bus reduction can only be more pessimistic than the
     crossbar-aware ILP on identical inputs (default options: the 16-cycle
     MIP slack is negligible against the gap) *)
  let a = counters ~ps:6000 ~ds:5000 ~pm:500 () in
  let b = counters ~ps:1200 ~ds:900 ~pm:100 () in
  let ilp =
    (Contention.Ilp_ptac.contention_bound_exn ~latency:lat
       ~scenario:Scenario.unrestricted ~a ~b ())
      .Contention.Ilp_ptac.delta
  in
  let fsb = (Contention.Fsb.contention_bound ~latency:lat ~a ~b ()).Contention.Fsb.delta in
  Alcotest.(check bool) (Printf.sprintf "fsb %d >= crossbar %d" fsb ilp) true (fsb >= ilp)

(* --- report ------------------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_report_markdown () =
  let a = counters ~ps:600 ~ds:500 ~pm:50 () in
  let b = counters ~ps:300 ~ds:250 ~pm:25 () in
  let text =
    Contention.Report.markdown ~latency:lat ~scenario:Scenario.scenario1 ~a ~b
      ~isolation_cycles:10_000 ~observed_cycles:10_500 ()
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("report contains " ^ needle) true (contains text needle))
    [
      "# Contention-aware WCET report";
      "scenario1";
      "PMEM_STALL";
      "fTC";
      "ILP-PTAC";
      "binding constraints";
      "observed multicore execution";
    ]

let test_report_binding_constraints () =
  let a = counters ~ps:600 ~ds:500 ~pm:50 () in
  let b = counters ~ps:300 ~ds:250 ~pm:25 () in
  let r =
    Option.get (solve ~options:Contention.Ilp_ptac.default_options
                  ~scenario:Scenario.scenario1 a b)
  in
  let binding =
    Contention.Report.binding_constraints ~latency:lat ~scenario:Scenario.scenario1
      ~a ~b r
  in
  (* the PCACHE_MISS tailoring equalities are always binding *)
  Alcotest.(check bool) "pm_a binding" true (List.mem_assoc "pm_a" binding);
  Alcotest.(check bool) "pm_b binding" true (List.mem_assoc "pm_b" binding)

(* --- signatures ----------------------------------------------------------------------- *)

let test_signatures_grid () =
  let max = counters ~ps:600 ~ds:500 ~pm:60 () in
  let templates = Contention.Signatures.grid ~steps:4 ~max in
  Alcotest.(check int) "4 rungs" 4 (List.length templates);
  (* each rung dominates its predecessor; the top equals max *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "monotone ladder" true
        (Contention.Signatures.dominates
           b.Contention.Signatures.counters a.Contention.Signatures.counters);
      check rest
    | [ top ] ->
      Alcotest.(check bool) "top = max" true
        (Counters.equal top.Contention.Signatures.counters max)
    | [] -> ()
  in
  check templates;
  (try
     ignore (Contention.Signatures.grid ~steps:0 ~max);
     Alcotest.fail "steps 0 must be rejected"
   with Invalid_argument _ -> ())

let test_signatures_table_monotone () =
  let a = counters ~ps:6000 ~ds:5000 ~pm:600 () in
  let max = counters ~ps:3000 ~ds:2500 ~pm:300 () in
  let table =
    Contention.Signatures.precompute ~latency:lat ~scenario:Scenario.scenario1 ~a
      ~templates:(Contention.Signatures.grid ~steps:5 ~max)
      ()
  in
  let deltas = List.map (fun e -> e.Contention.Signatures.delta) table.Contention.Signatures.entries in
  let rec monotone = function
    | x :: (y :: _ as rest) -> x <= y && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "budgets grow with the template" true (monotone deltas)

let test_signatures_classification () =
  let a = counters ~ps:6000 ~ds:5000 ~pm:600 () in
  let max = counters ~ps:3000 ~ds:2500 ~pm:300 () in
  let table =
    Contention.Signatures.precompute ~latency:lat ~scenario:Scenario.scenario1 ~a
      ~templates:(Contention.Signatures.grid ~steps:5 ~max)
      ()
  in
  (* a light contender lands on a low rung, with a budget covering its
     direct bound *)
  let b = counters ~ps:500 ~ds:400 ~pm:50 () in
  (match Contention.Signatures.classify table b with
   | None -> Alcotest.fail "light contender must classify"
   | Some e ->
     Alcotest.(check string) "lowest dominating rung" "load-1/5"
       e.Contention.Signatures.template.Contention.Signatures.label;
     let direct =
       (Option.get (solve ~options:Contention.Ilp_ptac.default_options
                      ~scenario:Scenario.scenario1 a b))
         .Contention.Ilp_ptac.delta
     in
     Alcotest.(check bool)
       (Printf.sprintf "budget %d covers direct bound %d"
          e.Contention.Signatures.delta direct)
       true
       (e.Contention.Signatures.delta >= direct));
  (* an oversized contender exceeds the ladder *)
  let huge = counters ~ps:60000 ~ds:50000 ~pm:6000 () in
  Alcotest.(check bool) "oversized contender rejected" true
    (Contention.Signatures.classify table huge = None)

(* --- property tests: simulator ground truth vs model bounds ---------------------- *)

(* Random deployment-conformant task pair; the simulator provides isolation
   counters, ground-truth profiles and the observed co-run slowdown that
   every model bound must dominate. *)

let gen_task_spec =
  let open QCheck.Gen in
  let* code_lines = int_range 8 96 in
  let* lmu_loads = int_range 0 60 in
  let* dfl_loads = int_range 0 12 in
  let* lmu_stores = int_range 0 20 in
  let* compute = int_range 1 60 in
  let* reps = int_range 2 6 in
  return (code_lines, lmu_loads, dfl_loads, lmu_stores, compute, reps)

(* a failing seed prints its tasks, not just the property's name *)
let arb_task_spec =
  QCheck.make
    ~print:(fun (code, lmu_ld, dfl_ld, lmu_st, compute, reps) ->
        Printf.sprintf "(code=%d, lmu_ld=%d, dfl_ld=%d, lmu_st=%d, compute=%d, reps=%d)"
          code lmu_ld dfl_ld lmu_st compute reps)
    gen_task_spec

let build_task slot (code_lines, lmu_loads, dfl_loads, lmu_stores, compute, reps) =
  let open Tcsim in
  let pspr = Memory_map.pspr_base in
  let lmu = Memory_map.lmu_uncached_base + (slot * 12 * 1024) in
  let dfl = Memory_map.dfl_base + (slot * 64 * 1024) in
  let pf = Memory_map.pf0_cached_base + (slot * 0x40000) in
  let body =
    List.init code_lines (fun i ->
        Program.I { Program.pc = pf + (i * 32); kind = Program.Compute 1 })
    @ List.init lmu_loads (fun i ->
        Program.I { Program.pc = pspr + (4 * i); kind = Program.Load (lmu + (4 * i)) })
    @ List.init dfl_loads (fun i ->
        Program.I { Program.pc = pspr + 0x800 + (4 * i); kind = Program.Load (dfl + (32 * i)) })
    @ List.init lmu_stores (fun i ->
        Program.I
          { Program.pc = pspr + 0x1000 + (4 * i); kind = Program.Store (lmu + 4096 + (4 * i)) })
    @ [ Program.I { Program.pc = pspr + 0x2000; kind = Program.Compute compute } ]
  in
  Program.make ~name:(Printf.sprintf "rand%d" slot) [ Program.loop reps body ]

let prop_models_upper_bound_random_coruns =
  QCheck.Test.make ~name:"fTC and ILP bounds dominate random co-runs" ~count:25
    (QCheck.pair arb_task_spec arb_task_spec)
    (fun (spec_a, spec_b) ->
       let pa = build_task 0 spec_a and pb = build_task 1 spec_b in
       let iso_a = Mbta.Measurement.isolation ~core:0 pa in
       let iso_b = Mbta.Measurement.isolation ~core:1 pb in
       let co = Mbta.Measurement.corun ~analysis:(pa, 0) ~contenders:[ (pb, 1) ] () in
       let slowdown = co.Mbta.Measurement.cycles - iso_a.Mbta.Measurement.cycles in
       let a = iso_a.Mbta.Measurement.counters and b = iso_b.Mbta.Measurement.counters in
       let ftc = (Contention.Ftc.contention_bound ~dirty:true ~latency:lat ~a ()).Contention.Ftc.delta in
       let ilp =
         (Contention.Ilp_ptac.contention_bound_exn ~latency:lat
            ~scenario:Scenario.unrestricted ~a ~b ())
           .Contention.Ilp_ptac.delta
       in
       (slowdown >= 0 && ftc >= slowdown && ilp >= slowdown)
       || QCheck.Test.fail_reportf "slowdown %d, fTC %d, ILP %d" slowdown ftc ilp)

let prop_ilp_at_most_ftc =
  (* The exact ILP optimum never exceeds the fTC bound (every interference
     unit is charged at most the worst per-op latency fTC assumes). The
     reported delta may sit above the optimum by the documented mip_slack,
     or by the LP integrality overshoot when the node budget triggers the
     relaxation fallback — both bounded by a small constant. *)
  let tolerance = 16 + 60 in
  QCheck.Test.make ~name:"ILP bound never exceeds fTC (mod documented slack)"
    ~count:30
    (QCheck.pair arb_task_spec arb_task_spec)
    (fun (spec_a, spec_b) ->
       let pa = build_task 0 spec_a and pb = build_task 1 spec_b in
       let a = (Mbta.Measurement.isolation ~core:0 pa).Mbta.Measurement.counters in
       let b = (Mbta.Measurement.isolation ~core:1 pb).Mbta.Measurement.counters in
       let ftc = (Contention.Ftc.contention_bound ~dirty:true ~latency:lat ~a ()).Contention.Ftc.delta in
       let ilp =
         (Contention.Ilp_ptac.contention_bound_exn ~latency:lat
            ~scenario:Scenario.unrestricted ~a ~b ())
           .Contention.Ilp_ptac.delta
       in
       ilp <= ftc + tolerance
       || QCheck.Test.fail_reportf "fTC %d, ILP %d, tolerance %d" ftc ilp tolerance)

let prop_ilp_at_least_ideal =
  QCheck.Test.make ~name:"ILP bound dominates the ideal model at ground truth"
    ~count:30
    (QCheck.pair arb_task_spec arb_task_spec)
    (fun (spec_a, spec_b) ->
       let pa = build_task 0 spec_a and pb = build_task 1 spec_b in
       let iso_a = Mbta.Measurement.isolation ~core:0 pa in
       let iso_b = Mbta.Measurement.isolation ~core:1 pb in
       let ideal =
         Contention.Ideal.contention_bound ~latency:lat
           ~a:iso_a.Mbta.Measurement.ground_truth
           ~b:iso_b.Mbta.Measurement.ground_truth ()
       in
       let ilp =
         (Contention.Ilp_ptac.contention_bound_exn ~latency:lat
            ~scenario:Scenario.unrestricted ~a:iso_a.Mbta.Measurement.counters
            ~b:iso_b.Mbta.Measurement.counters ())
           .Contention.Ilp_ptac.delta
       in
       ilp >= ideal || QCheck.Test.fail_reportf "ideal %d, ILP %d" ideal ilp)

let () =
  Alcotest.run "contention"
    [
      ( "ideal",
        [
          Alcotest.test_case "hand-computed" `Quick test_ideal_hand_computed;
          Alcotest.test_case "disjoint targets" `Quick test_ideal_disjoint_targets;
          Alcotest.test_case "dirty latency" `Quick test_ideal_dirty_latency;
        ] );
      ( "ftc",
        [
          Alcotest.test_case "hand-computed (Eqs. 4,6-8)" `Quick test_ftc_hand_computed;
          Alcotest.test_case "dirty variant" `Quick test_ftc_dirty;
          Alcotest.test_case "exact-code refinement" `Quick test_ftc_exact_code_refinement;
        ] );
      ( "ilp-ptac",
        [
          Alcotest.test_case "idle contender" `Quick test_ilp_idle_contender;
          Alcotest.test_case "idle task" `Quick test_ilp_idle_task;
          Alcotest.test_case "hand-computed pf conflicts" `Quick test_ilp_single_pair_hand_computed;
          Alcotest.test_case "caps at task traffic" `Quick test_ilp_caps_at_task_traffic;
          Alcotest.test_case "zero pairs respected" `Quick test_ilp_respects_zero_pairs;
          Alcotest.test_case "PM equality respected" `Quick test_ilp_pm_equality_respected;
          Alcotest.test_case "contender info tightens" `Quick test_ilp_contender_info_tightens;
          Alcotest.test_case "monotone in contender" `Quick test_ilp_monotone_in_contender;
          Alcotest.test_case "equality modes agree when consistent" `Quick
            test_ilp_equality_modes_on_consistent_readings;
          Alcotest.test_case "mip_slack bracket" `Quick test_ilp_mip_slack_bracket;
          Alcotest.test_case "Exact infeasible on real readings" `Quick
            test_ilp_exact_mode_infeasible_on_real_readings;
          Alcotest.test_case "build_model lookup" `Quick test_ilp_build_model_lookup;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "priority blocking hand-computed" `Quick
            test_priority_blocking_hand_computed;
          Alcotest.test_case "priority matches fTC shape" `Quick
            test_priority_equals_ftc_shape;
          Alcotest.test_case "multi-contender = sum" `Quick test_multi_is_sum;
          Alcotest.test_case "FSB hand-computed" `Quick test_fsb_hand_computed;
          Alcotest.test_case "FSB saturates" `Quick test_fsb_saturates;
          Alcotest.test_case "FSB dominates crossbar" `Quick test_fsb_dominates_crossbar;
          Alcotest.test_case "report markdown" `Quick test_report_markdown;
          Alcotest.test_case "report binding constraints" `Quick
            test_report_binding_constraints;
          Alcotest.test_case "signature grid" `Quick test_signatures_grid;
          Alcotest.test_case "signature budgets monotone" `Quick
            test_signatures_table_monotone;
          Alcotest.test_case "signature classification" `Quick
            test_signatures_classification;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_models_upper_bound_random_coruns;
            prop_ilp_at_most_ftc;
            prop_ilp_at_least_ideal;
          ] );
    ]
