(* Tests for the static-analysis passes (lib/analysis).

   Coverage: one unit test per rule per pass, the seeded defect fixtures,
   the pre-flight guards, the checked counter arithmetic satellites, and
   property tests: models that pass the lint presolve without Infeasible,
   and injected mutations (duplicated row, flipped sense, dropped bound)
   each caught by their named rule. *)

open Numeric
open Platform

let q = Q.of_int

let le terms rhs m = Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Le rhs
let ge terms rhs m = Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Ge rhs
let eq terms rhs m = Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Eq rhs

let bounds_of m =
  let n = Ilp.Model.num_vars m in
  ( Array.init n (fun v -> (Ilp.Model.var_info m v).Ilp.Model.lb),
    Array.init n (fun v -> (Ilp.Model.var_info m v).Ilp.Model.ub) )

let rules ds = List.map (fun d -> d.Analysis.Diag.rule) ds

let has_rule ?severity rule ds =
  List.exists
    (fun d ->
       d.Analysis.Diag.rule = rule
       && match severity with None -> true | Some s -> d.Analysis.Diag.severity = s)
    ds

let check_rule ?severity msg rule ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected rule %s in [%s]" msg rule
       (String.concat "; " (rules ds)))
    true
    (has_rule ?severity rule ds)

let check_clean msg ds =
  Alcotest.(check (list string)) msg [] (rules (Analysis.Diag.errors ds))

(* --- Diag ------------------------------------------------------------------ *)

let test_diag_sort_and_counts () =
  let ds =
    [
      Analysis.Diag.info ~rule:"i" ~path:[ "a" ] "third";
      Analysis.Diag.error ~rule:"e" ~path:[ "b" ] "first";
      Analysis.Diag.warning ~rule:"w" ~path:[ "c" ] "second";
    ]
  in
  Alcotest.(check (list string)) "sorted by severity" [ "e"; "w"; "i" ]
    (rules (Analysis.Diag.sort ds));
  Alcotest.(check int) "errors" 1 (Analysis.Diag.count ds Analysis.Diag.Error);
  Alcotest.(check int) "warnings" 1 (Analysis.Diag.count ds Analysis.Diag.Warning);
  Alcotest.(check bool) "has_errors" true (Analysis.Diag.has_errors ds);
  Alcotest.(check int) "by_rule" 1 (List.length (Analysis.Diag.by_rule ds "w"))

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_diag_json () =
  let d =
    Analysis.Diag.error ~equation:"Eq. 21" ~rule:"r" ~path:[ "a"; "b" ]
      "message with \"quotes\" and \\ backslash"
  in
  let j = Analysis.Diag.to_json d in
  Alcotest.(check bool) "escapes quotes" true (contains j "\\\"quotes\\\"");
  Alcotest.(check bool) "escapes backslash" true (contains j "\\\\ backslash");
  Alcotest.(check bool) "cites equation" true (contains j "\"equation\": \"Eq. 21\"");
  let report = Analysis.Diag.report_to_json [ d ] in
  Alcotest.(check bool) "report has counts" true
    (contains report "\"errors\": 1")

let test_diag_prefix () =
  let d = Analysis.Diag.info ~rule:"r" ~path:[ "x" ] "m" in
  match Analysis.Diag.prefix [ "p"; "q" ] [ d ] with
  | [ d' ] ->
    Alcotest.(check (list string)) "prefixed" [ "p"; "q"; "x" ] d'.Analysis.Diag.path
  | _ -> Alcotest.fail "prefix changed list length"

(* --- Model lint ------------------------------------------------------------- *)

let test_model_clean () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 10) "x" in
  let y = Ilp.Model.add_var m ~ub:(q 10) "y" in
  le [ (Q.one, x); (Q.one, y) ] (q 12) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_clean "well-formed model" (Analysis.Model_lint.check m)

let test_model_bound_contradiction () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~lb:(q 5) ~ub:(q 2) "x" in
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Error "lb > ub" "var-bound-contradiction"
    (Analysis.Model_lint.check m)

let test_model_unused_var () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 1) "x" in
  let _y = Ilp.Model.add_var m ~ub:(q 1) "y" in
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Warning "unused y" "var-unused"
    (Analysis.Model_lint.check m)

let test_model_duplicate_row () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 9) "x" in
  le [ (q 2, x) ] (q 7) m;
  le [ (q 2, x) ] (q 7) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Warning "identical rows" "row-duplicate"
    (Analysis.Model_lint.check m)

let test_model_dominated_row () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 100) "x" in
  le [ (Q.one, x) ] (q 7) m;
  le [ (Q.one, x) ] (q 50) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Warning "weaker row" "row-dominated"
    (Analysis.Model_lint.check m)

let test_model_eq_conflict () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 10) "x" in
  eq [ (Q.one, x) ] (q 3) m;
  eq [ (Q.one, x) ] (q 4) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Error "conflicting equalities"
    "row-contradiction" (Analysis.Model_lint.check m)

let test_model_activity_contradiction () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 2) "x" in
  ge [ (Q.one, x) ] (q 4) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Error "x <= 2 vs x >= 4" "row-contradiction"
    (Analysis.Model_lint.check m)

let test_model_redundant_row () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 2) "x" in
  le [ (Q.one, x) ] (q 100) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Info "slack row" "row-redundant"
    (Analysis.Model_lint.check m)

let test_model_objective_unbounded () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  (* x >= 1 does not cap the maximisation *)
  ge [ (Q.one, x) ] Q.one m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_rule ~severity:Analysis.Diag.Error "no upward cap" "objective-unbounded"
    (Analysis.Model_lint.check m)

let test_model_objective_possibly_unbounded () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m ~ub:(q 5) "y" in
  (* x + y <= 9 caps x upward, so only a warning remains *)
  le [ (Q.one, x); (Q.one, y) ] (q 9) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  let ds = Analysis.Model_lint.check m in
  check_rule ~severity:Analysis.Diag.Warning "capped by a row"
    "objective-possibly-unbounded" ds;
  Alcotest.(check bool) "not an error" false (Analysis.Diag.has_errors ds)

(* --- Counter lint ------------------------------------------------------------ *)

let counters ?(ccnt = 1_000_000) ?(ps = 100) ?(ds = 100) ?(pm = 2) ?(dmc = 2)
    ?(dmd = 0) () =
  {
    Counters.ccnt;
    pmem_stall = ps;
    dmem_stall = ds;
    pcache_miss = pm;
    dcache_miss_clean = dmc;
    dcache_miss_dirty = dmd;
  }

let test_counters_clean () =
  check_clean "plausible reading"
    (Analysis.Counter_lint.check ~path:[ "c" ] (counters ()))

let test_counters_negative () =
  check_rule ~severity:Analysis.Diag.Error "negative read-out" "counter-negative"
    (Analysis.Counter_lint.check ~path:[ "c" ] (counters ~pm:(-3) ()))

let test_counters_stall_exceeds_ccnt () =
  check_rule ~severity:Analysis.Diag.Error "stalls > cycles" "stall-exceeds-ccnt"
    (Analysis.Counter_lint.check ~path:[ "c" ] (counters ~ccnt:50 ~ps:80 ()))

let test_counters_pm_stall_soft_vs_hard () =
  (* 50 I-cache misses cannot fit in 0 stall cycles *)
  let c = counters ~pm:50 ~ps:0 () in
  check_rule ~severity:Analysis.Diag.Warning "warning without tailoring"
    "pm-stall-inconsistent"
    (Analysis.Counter_lint.check ~path:[ "c" ] c);
  (* scenario1 asserts PM counts SRI code requests exactly -> hard error *)
  check_rule ~severity:Analysis.Diag.Error "error under scenario1"
    "pm-stall-inconsistent"
    (Analysis.Counter_lint.check ~scenario:Scenario.scenario1 ~path:[ "c" ] c)

let test_counters_dm_stall () =
  check_rule "DMC+DMD vs DS" "dm-stall-inconsistent"
    (Analysis.Counter_lint.check ~path:[ "c" ]
       (counters ~dmc:30 ~dmd:20 ~ds:0 ()))

let test_counters_window () =
  let before = counters ~ccnt:100 ~ps:10 () in
  let after = counters ~ccnt:500 ~ps:60 () in
  Alcotest.(check (list string)) "monotone window" []
    (rules (Analysis.Counter_lint.check_window ~path:[ "w" ] ~before ~after));
  check_rule ~severity:Analysis.Diag.Error "regressing window"
    "counter-window-negative"
    (Analysis.Counter_lint.check_window ~path:[ "w" ] ~before:after ~after:before)

(* --- Scenario lint ------------------------------------------------------------ *)

let test_scenarios_bundled_clean () =
  List.iter
    (fun s ->
       Alcotest.(check (list string))
         (Printf.sprintf "%s is clean" s.Scenario.name)
         []
         (rules (Analysis.Scenario_lint.check s)))
    Scenario.all

let test_scenario_zero_contradicted () =
  let deployment =
    Deployment.make_exn ~name:"d"
      [
        {
          Deployment.kind = Op.Data;
          place = Deployment.Shared (Target.Lmu, Deployment.Non_cacheable);
          label = "shared-data";
        };
      ]
  in
  let s =
    {
      Scenario.name = "s";
      description = "";
      deployment;
      specs = [ Scenario.Zero (Target.Lmu, Op.Data) ];
    }
  in
  check_rule ~severity:Analysis.Diag.Error "zero vs own traffic"
    "zero-spec-contradicted"
    (Analysis.Scenario_lint.check s)

let test_scenario_tailoring_incomplete () =
  let deployment =
    Deployment.make_exn ~name:"d"
      [
        {
          Deployment.kind = Op.Code;
          place = Deployment.Shared (Target.Pf0, Deployment.Cacheable);
          label = "code0";
        };
        {
          Deployment.kind = Op.Code;
          place = Deployment.Shared (Target.Pf1, Deployment.Cacheable);
          label = "code1";
        };
      ]
  in
  let s =
    {
      Scenario.name = "s";
      description = "";
      deployment;
      specs = [ Scenario.Code_sum_equals_pcache_miss [ Target.Pf0 ] ];
    }
  in
  check_rule ~severity:Analysis.Diag.Error "pf1 omitted" "tailoring-incomplete"
    (Analysis.Scenario_lint.check s)

let test_scenario_tailoring_inapplicable () =
  let s =
    {
      Scenario.name = "s";
      description = "";
      deployment = Scenario.scenario1.Scenario.deployment;
      specs = [ Scenario.Data_sum_at_least_dcache_misses [ Target.Dfl ] ];
    }
  in
  check_rule ~severity:Analysis.Diag.Error "dfl cannot hold cacheable data"
    "tailoring-inapplicable"
    (Analysis.Scenario_lint.check s)

(* --- Program lint -------------------------------------------------------------- *)

let prog name items = Tcsim.Program.make ~name items

let task label core program = { Analysis.Program_lint.label; core; program }

let test_program_unmapped () =
  let p =
    prog "p" [ Tcsim.Program.I { pc = 0x0000_1000; kind = Tcsim.Program.Compute 1 } ]
  in
  check_rule ~severity:Analysis.Diag.Error "hole in the map" "address-unmapped"
    (Analysis.Program_lint.check [ task "t" 0 p ])

let test_program_code_from_dfl () =
  let p =
    prog "p"
      [
        Tcsim.Program.I
          { pc = Tcsim.Memory_map.dfl_base; kind = Tcsim.Program.Compute 1 };
      ]
  in
  check_rule ~severity:Analysis.Diag.Error "fetch from data flash" "code-from-dfl"
    (Analysis.Program_lint.check [ task "t" 0 p ])

let test_program_unreachable_loop () =
  let p =
    prog "p"
      [
        Tcsim.Program.Loop
          {
            count = 0;
            body =
              [
                Tcsim.Program.I
                  { pc = Tcsim.Memory_map.pspr_base; kind = Tcsim.Program.Compute 1 };
              ];
          };
      ]
  in
  check_rule ~severity:Analysis.Diag.Warning "count-0 loop" "loop-unreachable"
    (Analysis.Program_lint.check [ task "t" 0 p ])

let load_lmu name =
  prog name
    (Tcsim.Program.seq ~pc_base:Tcsim.Memory_map.pspr_base
       [ Tcsim.Program.Load Tcsim.Memory_map.lmu_uncached_base ])

let test_program_cross_core_overlap () =
  check_rule ~severity:Analysis.Diag.Error "same LMU line, two cores" "map-overlap"
    (Analysis.Program_lint.check [ task "a" 0 (load_lmu "a"); task "b" 1 (load_lmu "b") ])

let test_program_same_core_sharing_ok () =
  check_clean "same-core tasks may share"
    (Analysis.Program_lint.check
       [ task "a" 0 (load_lmu "a"); task "b" 0 (load_lmu "b") ])

let test_program_code_data_overlap () =
  (* cached fetch and uncached load of the same physical LMU line: the
     canonical line identity must see through the alias *)
  let p =
    prog "p"
      [
        Tcsim.Program.I
          {
            pc = Tcsim.Memory_map.lmu_cached_base;
            kind = Tcsim.Program.Load Tcsim.Memory_map.lmu_uncached_base;
          };
      ]
  in
  check_rule ~severity:Analysis.Diag.Warning "aliased line" "code-data-overlap"
    (Analysis.Program_lint.check [ task "t" 0 p ])

let test_program_zero_traffic_mismatch () =
  (* scenario1 declares pf data traffic impossible *)
  let p =
    prog "p"
      (Tcsim.Program.seq ~pc_base:Tcsim.Memory_map.pspr_base
         [ Tcsim.Program.Load Tcsim.Memory_map.pf0_cached_base ])
  in
  check_rule ~severity:Analysis.Diag.Warning "pf0 data under scenario1"
    "zero-traffic-mismatch"
    (Analysis.Program_lint.check ~scenario:Scenario.scenario1 [ task "t" 0 p ])

(* --- Program lint oracle ------------------------------------------------------------ *)

(* Multi-task programs over a few lines of every window (cached and
   uncached aliases), the scratchpads and a handful of unmapped
   addresses, with repeated labels, zero-count loops and a scenario that
   declares pairs zero: every rule can fire. *)
let gen_lint_case =
  let open QCheck.Gen in
  let module M = Tcsim.Memory_map in
  let sri_addr =
    map3
      (fun base line off -> base + (32 * line) + off)
      (oneofl
         M.
           [
             pf0_cached_base;
             pf0_uncached_base;
             pf1_cached_base;
             pf1_uncached_base;
             lmu_cached_base;
             lmu_uncached_base;
             dfl_base;
           ])
      (0 -- 3) (0 -- 31)
  in
  let addr =
    frequency
      [
        (8, sri_addr);
        (2, map (fun off -> M.dspr_base + off) (0 -- 64));
        (2, map (fun off -> M.pspr_base + off) (0 -- 64));
        (1, oneofl [ 0x1000; -4; M.lmu_cached_base + M.lmu_size; M.dfl_base - 1 ]);
      ]
  in
  let kind =
    frequency
      [
        (1, map (fun n -> Tcsim.Program.Compute n) (1 -- 9));
        (2, map (fun a -> Tcsim.Program.Load a) addr);
        (2, map (fun a -> Tcsim.Program.Store a) addr);
      ]
  in
  let items =
    fix
      (fun self depth ->
         list_size (1 -- 5)
           (frequency
              ((4, map2 (fun pc kind -> Tcsim.Program.I { pc; kind }) addr kind)
               ::
               (if depth = 0 then []
                else
                  [
                    ( 1,
                      map2
                        (fun count body -> Tcsim.Program.Loop { count; body })
                        (0 -- 2) (self (depth - 1)) );
                  ]))))
      2
  in
  let task =
    map3
      (fun label core items ->
         { Analysis.Program_lint.label; core; program = prog label items })
      (oneofl [ "a"; "b"; "c" ]) (0 -- 2) items
  in
  pair
    (opt (oneofl [ Scenario.scenario1; Scenario.scenario2 ]))
    (list_size (1 -- 4) task)

let print_lint_case (_, tasks) =
  String.concat "; "
    (List.map
       (fun t ->
          Printf.sprintf "%s@%d: %d instrs" t.Analysis.Program_lint.label
            t.Analysis.Program_lint.core
            (Tcsim.Program.static_size t.Analysis.Program_lint.program))
       tasks)

let prop_program_lint_matches_oracle =
  QCheck.Test.make ~name:"program lint = reference lint, same order" ~count:500
    (QCheck.make ~print:print_lint_case gen_lint_case)
    (fun (scenario, tasks) ->
       Analysis.Program_lint.check ?scenario tasks
       = Ref_program_lint.check ?scenario tasks)

let test_lint_oracle_hits_every_rule () =
  let fired = Hashtbl.create 8 in
  List.iter
    (fun (scenario, tasks) ->
       List.iter
         (fun d -> Hashtbl.replace fired d.Analysis.Diag.rule ())
         (Analysis.Program_lint.check ?scenario tasks))
    (QCheck.Gen.generate ~rand:(Random.State.make [| 25 |]) ~n:500 gen_lint_case);
  List.iter
    (fun rule ->
       Alcotest.(check bool) (rule ^ " fires") true (Hashtbl.mem fired rule))
    [
      "map-overlap";
      "code-data-overlap";
      "zero-traffic-mismatch";
      "address-unmapped";
      "code-from-dfl";
      "loop-unreachable";
    ]

(* --- Program lint: one layout per program value ------------------------------- *)

(* A program's layout is kept in the program value, so nothing in it
   may depend on the cell that first linted it: each generated value,
   linted under two labels, on two cores and under both scenarios and
   none in turn, and beside itself on another core, reports what the
   reference lint reports, in the same order. *)
let prop_layout_reused_across_cells =
  QCheck.Test.make ~name:"one program value linted cell after cell = reference lint"
    ~count:300 (QCheck.make ~print:print_lint_case gen_lint_case)
    (fun (_, tasks) ->
       List.for_all
         (fun { Analysis.Program_lint.program = p; _ } ->
            List.for_all
              (fun (scenario, tasks) ->
                 Analysis.Program_lint.check ?scenario tasks
                 = Ref_program_lint.check ?scenario tasks)
              [
                (Some Scenario.scenario1, [ task "x" 0 p ]);
                (Some Scenario.scenario2, [ task "y" 1 p ]);
                (None, [ task "y" 0 p ]);
                (Some Scenario.scenario2, [ task "x" 2 p ]);
                (Some Scenario.scenario1, [ task "a" 0 p; task "b" 1 p ]);
                (None, [ task "b" 2 p; task "a" 0 p; task "b" 2 p ]);
              ])
         tasks)

(* One value on two cores shares every one of its lines with itself. *)
let test_layout_overlaps_itself () =
  let module M = Tcsim.Memory_map in
  let p =
    prog "p"
      [
        Tcsim.Program.I { pc = M.pf0_cached_base; kind = Tcsim.Program.Load M.lmu_uncached_base };
        Tcsim.Program.loop 3
          [ Tcsim.Program.I { pc = M.pf1_cached_base + 64; kind = Tcsim.Program.Store M.lmu_cached_base } ];
      ]
  in
  let tasks = [ task "a" 0 p; task "b" 1 p ] in
  let diags = Analysis.Program_lint.check ~scenario:Scenario.scenario2 tasks in
  Alcotest.(check bool) "equals the reference lint" true
    (diags = Ref_program_lint.check ~scenario:Scenario.scenario2 tasks);
  Alcotest.(check (list string)) "map-overlap per shared target"
    [
      "shares 1 pf0 line(s) with task b on another core; concurrent tasks must use \
       disjoint 32-byte SRI lines";
      "shares 1 pf1 line(s) with task b on another core; concurrent tasks must use \
       disjoint 32-byte SRI lines";
      "shares 1 lmu line(s) with task b on another core; concurrent tasks must use \
       disjoint 32-byte SRI lines";
    ]
    (List.map (fun d -> d.Analysis.Diag.message) (Analysis.Diag.by_rule diags "map-overlap"))

(* A paper-grid pass (Figure 4, Table 6 and ablations A1-A4 from cold
   run and solve caches) lints its ten bundled programs - two
   applications, three load levels per scenario and A3's second
   contender per scenario - cell after cell, and builds each one's
   layout at most once: a second pass builds none. *)
let test_layout_once_per_pass () =
  let built = Obs.Metrics.counter ~timing:true "tcsim.program.layouts" in
  let pass () =
    Runtime.Run_cache.clear ();
    Runtime.Solve_cache.clear ();
    let before = Obs.Metrics.value built in
    let open Experiments in
    ignore (Figure4.run_all ~jobs:1 ());
    ignore (Table6.run ~jobs:1 ());
    ignore (Ablations.a1_contender_info ~jobs:1 ());
    ignore (Ablations.a2_equality_modes ~jobs:1 ());
    List.iter
      (fun s -> ignore (Ablations.a3_multi_contender ~jobs:1 s))
      [ Scenario.scenario1; Scenario.scenario2 ];
    ignore (Ablations.a4_fsb ~jobs:1 ());
    Obs.Metrics.value built - before
  in
  let first = pass () in
  Alcotest.(check bool) (Printf.sprintf "first pass: %d layouts, at most 10" first) true (first <= 10);
  Alcotest.(check int) "second pass: none" 0 (pass ())

(* --- fixtures & preflight -------------------------------------------------------- *)

let test_fixtures_all_detected () =
  List.iter
    (fun f ->
       check_rule ~severity:Analysis.Diag.Error f.Analysis.Fixtures.fname
         f.Analysis.Fixtures.expected_rule
         (f.Analysis.Fixtures.diags ()))
    Analysis.Fixtures.all

let test_preflight_guard () =
  Analysis.Preflight.guard [ Analysis.Diag.warning ~rule:"w" ~path:[] "soft" ];
  Alcotest.check_raises "errors raise"
    (Analysis.Preflight.Preflight_failed
       [ "error[e] x: hard" ])
    (fun () ->
       Analysis.Preflight.guard [ Analysis.Diag.error ~rule:"e" ~path:[ "x" ] "hard" ])

let test_preflight_bundled_runs () =
  (* the guards wired into the experiments must accept the bundled setups *)
  List.iter
    (fun scenario ->
       let variant = Workload.Control_loop.variant_of_scenario scenario in
       Analysis.Preflight.run ~scenario
         ~tasks:
           [
             task "app" 0 (Workload.Control_loop.app variant);
             task "contender" 1
               (Workload.Load_gen.make ~variant ~level:Workload.Load_gen.High ());
           ]
         ())
    [ Scenario.scenario1; Scenario.scenario2 ]

(* --- satellite: checked counter arithmetic ----------------------------------------- *)

let test_sub_exn () =
  let before = counters ~ccnt:100 ~ps:10 () in
  let after = counters ~ccnt:500 ~ps:60 () in
  Alcotest.(check bool) "delta matches sub" true
    (Counters.equal (Counters.sub_exn after before) (Counters.sub after before));
  (match Counters.sub_exn before after with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument msg ->
     let lower = String.lowercase_ascii msg in
     Alcotest.(check bool) "names the field" true
       (contains lower "ccnt" || contains lower "stall"))

let test_scale_div_contract () =
  let c = counters ~ccnt:5 ~ps:5 ~ds:5 ~pm:5 ~dmc:5 ~dmd:5 () in
  (* ceiling division: ceil(5 * 1 / 2) = 3 *)
  let h = Counters.scale_div c ~num:1 ~den:2 in
  Alcotest.(check int) "rounds up" 3 h.Counters.ccnt;
  (* num = 0 is a legitimate annihilator by default... *)
  Alcotest.(check bool) "zero scaling accepted" true
    (Counters.equal (Counters.scale_div c ~num:0 ~den:1) Counters.zero);
  (* ...but rejected where a degenerate template would be meaningless *)
  (match Counters.scale_div ~require_positive:true c ~num:0 ~den:1 with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  (match Counters.scale_div c ~num:1 ~den:0 with
   | _ -> Alcotest.fail "expected Invalid_argument on den = 0"
   | exception Invalid_argument _ -> ())

(* --- properties -------------------------------------------------------------------- *)

(* Feasible-by-construction random models: pick an integer point, make every
   bound and row satisfied at that point. The lint must report no errors and
   presolve must not declare Infeasible. *)

type rand_model = {
  point : int array;
  ubs : int array;
  rows : (int array * Ilp.Model.sense * int) list;
  maximize : bool;
  obj : int array;
}

let gen_feasible =
  let open QCheck.Gen in
  int_range 1 4 >>= fun nvars ->
  array_repeat nvars (int_range 0 5) >>= fun point ->
  array_repeat nvars (int_range 0 5) >>= fun slack ->
  let ubs = Array.mapi (fun i s -> point.(i) + s) slack in
  let dot coeffs = Array.fold_left ( + ) 0 (Array.mapi (fun i c -> c * point.(i)) coeffs) in
  int_range 1 5 >>= fun nrows ->
  list_repeat nrows
    ( array_repeat nvars (int_range (-3) 3) >>= fun coeffs ->
      oneofl [ Ilp.Model.Le; Ilp.Model.Ge; Ilp.Model.Eq ] >>= fun sense ->
      int_range 0 5 >|= fun s ->
      let v = dot coeffs in
      let rhs =
        match sense with
        | Ilp.Model.Le -> v + s
        | Ilp.Model.Ge -> v - s
        | Ilp.Model.Eq -> v
      in
      (coeffs, sense, rhs) )
  >>= fun rows ->
  array_repeat nvars (int_range (-3) 3) >>= fun obj ->
  bool >|= fun maximize -> { point; ubs; rows; maximize; obj }

let to_model r =
  let m = Ilp.Model.create () in
  let vars =
    Array.mapi
      (fun i u -> Ilp.Model.add_var m ~integer:true ~ub:(q u) (Printf.sprintf "x%d" i))
      r.ubs
  in
  List.iter
    (fun (coeffs, sense, rhs) ->
       let terms =
         Array.to_list (Array.mapi (fun i c -> (q c, vars.(i))) coeffs)
         |> List.filter (fun (c, _) -> not (Q.is_zero c))
       in
       Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) sense (q rhs))
    r.rows;
  Ilp.Model.set_objective m
    (if r.maximize then Ilp.Model.Maximize else Ilp.Model.Minimize)
    (Ilp.Linexpr.of_terms
       (Array.to_list (Array.mapi (fun i c -> (q c, vars.(i))) r.obj)));
  m

let prop_lint_accepts_feasible =
  QCheck.Test.make ~name:"lint-clean feasible boxes pass presolve" ~count:300
    (QCheck.make gen_feasible) (fun r ->
        let m = to_model r in
        let lint_ok = not (Analysis.Diag.has_errors (Analysis.Model_lint.check m)) in
        let lb, ub = bounds_of m in
        let presolve_ok =
          match Ilp.Presolve.tighten m ~lb ~ub with
          | Ilp.Presolve.Tightened _ -> true
          | Ilp.Presolve.Infeasible -> false
        in
        lint_ok && presolve_ok)

let prop_mutation_duplicate_row =
  QCheck.Test.make ~name:"mutation: duplicated row is caught" ~count:200
    (QCheck.make gen_feasible) (fun r ->
        let m = to_model r in
        (match Ilp.Model.constraints m with
         | c :: _ ->
           Ilp.Model.add_constraint m c.Ilp.Model.expr c.Ilp.Model.csense
             c.Ilp.Model.rhs
         | [] -> QCheck.assume_fail ());
        has_rule "row-duplicate" (Analysis.Model_lint.check m))

let prop_mutation_flipped_sense =
  QCheck.Test.make ~name:"mutation: flipped sense is caught" ~count:200
    (QCheck.make gen_feasible) (fun r ->
        let m = to_model r in
        (* Σ x_i <= Σ ub_i + 1 holds everywhere; the Ge flip holds nowhere *)
        let terms =
          List.init (Array.length r.ubs) (fun i -> (Q.one, i))
        in
        let beyond = q (Array.fold_left ( + ) 1 r.ubs) in
        Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Ge
          beyond;
        has_rule ~severity:Analysis.Diag.Error "row-contradiction"
          (Analysis.Model_lint.check m))

let test_mutation_dropped_bound () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 5) "x" in
  ge [ (Q.one, x) ] Q.one m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_clean "bounded original" (Analysis.Model_lint.check m);
  Ilp.Model.set_var_bounds m x ~lb:(Some Q.zero) ~ub:None;
  check_rule ~severity:Analysis.Diag.Error "dropped upper bound"
    "objective-unbounded" (Analysis.Model_lint.check m)

(* --- runner -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "analysis"
    [
      ( "diag",
        [
          Alcotest.test_case "sort and counts" `Quick test_diag_sort_and_counts;
          Alcotest.test_case "json rendering" `Quick test_diag_json;
          Alcotest.test_case "path prefix" `Quick test_diag_prefix;
        ] );
      ( "model-lint",
        [
          Alcotest.test_case "clean model" `Quick test_model_clean;
          Alcotest.test_case "bound contradiction" `Quick test_model_bound_contradiction;
          Alcotest.test_case "unused variable" `Quick test_model_unused_var;
          Alcotest.test_case "duplicate row" `Quick test_model_duplicate_row;
          Alcotest.test_case "dominated row" `Quick test_model_dominated_row;
          Alcotest.test_case "equality conflict" `Quick test_model_eq_conflict;
          Alcotest.test_case "activity contradiction" `Quick
            test_model_activity_contradiction;
          Alcotest.test_case "redundant row" `Quick test_model_redundant_row;
          Alcotest.test_case "unbounded objective" `Quick test_model_objective_unbounded;
          Alcotest.test_case "possibly unbounded" `Quick
            test_model_objective_possibly_unbounded;
        ] );
      ( "counter-lint",
        [
          Alcotest.test_case "clean reading" `Quick test_counters_clean;
          Alcotest.test_case "negative counter" `Quick test_counters_negative;
          Alcotest.test_case "stalls exceed ccnt" `Quick test_counters_stall_exceeds_ccnt;
          Alcotest.test_case "pm-stall soft vs hard" `Quick
            test_counters_pm_stall_soft_vs_hard;
          Alcotest.test_case "dm-stall bound" `Quick test_counters_dm_stall;
          Alcotest.test_case "window monotonicity" `Quick test_counters_window;
        ] );
      ( "scenario-lint",
        [
          Alcotest.test_case "bundled scenarios clean" `Quick
            test_scenarios_bundled_clean;
          Alcotest.test_case "zero spec contradicted" `Quick
            test_scenario_zero_contradicted;
          Alcotest.test_case "tailoring incomplete" `Quick
            test_scenario_tailoring_incomplete;
          Alcotest.test_case "tailoring inapplicable" `Quick
            test_scenario_tailoring_inapplicable;
        ] );
      ( "program-lint",
        [
          Alcotest.test_case "unmapped address" `Quick test_program_unmapped;
          Alcotest.test_case "code from dfl" `Quick test_program_code_from_dfl;
          Alcotest.test_case "unreachable loop" `Quick test_program_unreachable_loop;
          Alcotest.test_case "cross-core overlap" `Quick test_program_cross_core_overlap;
          Alcotest.test_case "same-core sharing ok" `Quick
            test_program_same_core_sharing_ok;
          Alcotest.test_case "code/data alias overlap" `Quick
            test_program_code_data_overlap;
          Alcotest.test_case "zero-traffic mismatch" `Quick
            test_program_zero_traffic_mismatch;
          QCheck_alcotest.to_alcotest prop_program_lint_matches_oracle;
          Alcotest.test_case "oracle cases hit every rule" `Quick
            test_lint_oracle_hits_every_rule;
          QCheck_alcotest.to_alcotest prop_layout_reused_across_cells;
          Alcotest.test_case "one value on two cores overlaps itself" `Quick
            test_layout_overlaps_itself;
          Alcotest.test_case "a paper-grid pass builds each layout once" `Quick
            test_layout_once_per_pass;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "all defects detected" `Quick test_fixtures_all_detected;
          Alcotest.test_case "guard raises on errors" `Quick test_preflight_guard;
          Alcotest.test_case "bundled setups pass preflight" `Quick
            test_preflight_bundled_runs;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "sub_exn" `Quick test_sub_exn;
          Alcotest.test_case "scale_div contract" `Quick test_scale_div_contract;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lint_accepts_feasible;
            prop_mutation_duplicate_row;
            prop_mutation_flipped_sense;
          ]
        @ [ Alcotest.test_case "mutation: dropped bound" `Quick
              test_mutation_dropped_bound ] );
    ]
