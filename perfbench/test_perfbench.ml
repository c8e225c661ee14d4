(* Unit tests of the benchmark harness: the statistics it reports, the
   regression rule, the host-speed scale, seeded input generation and
   the results format. *)

open Perfbench

let check_float msg = Alcotest.(check (float 1e-9)) msg

let percentile_rule () =
  List.iter
    (fun (n, p) -> check_float (Printf.sprintf "tail percentile at n=%d" n) p (Stats.tail_percentile n))
    [ (5, 50.); (20, 50.); (39, 50.); (40, 75.); (99, 75.); (100, 90.); (199, 90.); (200, 95.); (1000, 99.); (10_000, 99.9) ];
  check_float "median of an odd sample" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ]);
  check_float "median interpolates" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check_float "p90 of 1..100" 90.1 (Stats.percentile (List.init 100 (fun i -> float_of_int (100 - i))) 90.);
  check_float "spread is the IQR over the median" (2. /. 3.) (Stats.spread [ 1.; 2.; 3.; 4.; 5. ])

let regression_rule () =
  let r b ~base ~cand = Stats.regressed b ~base ~cand in
  let lower = { Stats.better = Stats.Lower; rel = 0.1; floor = 0. } in
  Alcotest.(check bool) "lower: within the bound" false (r lower ~base:100. ~cand:109.);
  Alcotest.(check bool) "lower: beyond the bound" true (r lower ~base:100. ~cand:111.);
  Alcotest.(check bool) "lower: an improvement" false (r lower ~base:100. ~cand:50.);
  let higher = { lower with Stats.better = Stats.Higher } in
  Alcotest.(check bool) "higher: within the bound" false (r higher ~base:100. ~cand:91.);
  Alcotest.(check bool) "higher: beyond the bound" true (r higher ~base:100. ~cand:89.);
  let setup = { Stats.better = Stats.Lower; rel = 0.2; floor = Stats.setup_floor_s } in
  Alcotest.(check bool) "setup_s: under the absolute floor" false (r setup ~base:0.1 ~cand:0.14);
  Alcotest.(check bool) "setup_s: over the floor" true (r setup ~base:0.1 ~cand:0.16);
  Alcotest.(check bool) "setup_s: relative bound above the floor" false (r setup ~base:1. ~cand:1.19);
  Alcotest.(check bool) "setup_s: beyond the relative bound" true (r setup ~base:1. ~cand:1.21);
  let f = Stats.failed_ratio_bound in
  Alcotest.(check bool) "failed_ratio: unchanged" false (r f ~base:0. ~cand:0.);
  Alcotest.(check bool) "failed_ratio: any increase" true (r f ~base:0. ~cand:0.001);
  Alcotest.(check bool) "failed_ratio: fewer failures" false (r f ~base:0.01 ~cand:0.005)

let verdict_rule () =
  let v b base cand = Stats.verdict_to_string (Stats.verdict b ~base ~cand) in
  let check msg want got = Alcotest.(check string) msg want got in
  let lower = { Stats.better = Stats.Lower; rel = 0.1; floor = 0. } in
  let steady = [ 99.; 100.; 100.; 101. ] in
  check "steady, unchanged" "ok" (v lower steady [ 100.; 101.; 102.; 100. ]);
  check "steady, beyond the bound" "REGRESSED" (v lower steady [ 115.; 116.; 114.; 115. ]);
  (* a spread of 30%: medians 15% apart cannot be told from noise *)
  let noisy = [ 70.; 85.; 100.; 115.; 130. ] in
  check_float "the noisy sample's spread" 0.3 (Stats.spread noisy);
  check "noisy base" "UNRESOLVED" (v lower noisy [ 110.; 115.; 116.; 117. ]);
  check "noisy candidate" "UNRESOLVED" (v lower steady [ 90.; 115.; 116.; 150. ]);
  check "noisy but every candidate better" "ok" (v lower noisy [ 50.; 55.; 60.; 65. ]);
  check "noisy but every candidate worse beyond the bound" "REGRESSED" (v lower noisy [ 140.; 150.; 160.; 170. ]);
  check "noisy, worse but within the bound" "UNRESOLVED" (v lower noisy [ 105.; 107.; 108.; 160. ]);
  let higher = { lower with Stats.better = Stats.Higher } in
  check "higher: noisy but every candidate better" "ok" (v higher noisy [ 140.; 150.; 160.; 170. ]);
  (* setup_s: the 0.05 s floor on a 0.1 s median tolerates a 50% spread *)
  let setup = { Stats.better = Stats.Lower; rel = 0.2; floor = Stats.setup_floor_s } in
  check "setup_s: spread within the floor" "ok" (v setup [ 0.07; 0.08; 0.1; 0.12; 0.13 ] [ 0.09; 0.1; 0.11; 0.13 ]);
  let f = Stats.failed_ratio_bound in
  check "failed_ratio: any increase" "REGRESSED" (v f [ 0.; 0.; 0. ] [ 0.; 0.01; 0.01 ]);
  check "failed_ratio: none" "ok" (v f [ 0.; 0.; 0. ] [ 0.; 0.; 0. ])

(* an interval takes the samples that bracket it and those inside *)
let probe_scale () =
  let tl = [| { Probe.at = 0.; slowdown = 1. }; { at = 1.; slowdown = 2. }; { at = 2.; slowdown = 1. } |] in
  check_float "between two samples" (2. /. 3.) (Probe.scale tl 0.5 0.6);
  check_float "across the slow sample" 1. (Probe.scale tl 0.5 1.5);
  check_float "on a sample" 0.5 (Probe.scale tl 1. 1.);
  check_float "before the first sample" 1. (Probe.scale tl (-1.) (-0.5));
  check_float "after the last sample" 1. (Probe.scale tl 3. 4.);
  check_float "no samples" 1. (Probe.scale [||] 0. 1.)

let cells_sig ~seed ~batch =
  List.map
    (fun (c : Gen.cell) ->
       ( c.Gen.scenario.Platform.Scenario.name,
         c.Gen.factor,
         Tcsim.Program.items c.Gen.app,
         List.map (fun (p, core) -> (Tcsim.Program.items p, core)) c.Gen.contenders ))
    (Gen.cells ~seed ~batch)

let pairs_sig ~seed =
  List.init (Array.length Gen.pair_design) (fun slot ->
      let p = Gen.pair ~seed ~slot ~attempt:0 in
      (Tcsim.Program.items p.Gen.papp, Tcsim.Program.items p.Gen.pcontender))

let requests_sig ~seed =
  List.map
    (fun q -> Serve.Protocol.encode_request (Serve.Protocol.Analyze q))
    (Gen.hits ~seed ~batch:0 @ Gen.fresh ~seed ~batch:0 () @ Gen.rejects ~seed ~batch:0)

let seed_determinism () =
  Alcotest.(check bool) "cells: same seed, same programs" true (cells_sig ~seed:1 ~batch:0 = cells_sig ~seed:1 ~batch:0);
  Alcotest.(check bool) "cells: seeds 1 and 2 differ" false (cells_sig ~seed:1 ~batch:0 = cells_sig ~seed:2 ~batch:0);
  Alcotest.(check bool) "cells: batches differ" false (cells_sig ~seed:1 ~batch:0 = cells_sig ~seed:1 ~batch:1);
  Alcotest.(check bool) "pairs: same seed" true (pairs_sig ~seed:1 = pairs_sig ~seed:1);
  Alcotest.(check bool) "pairs: seeds 1 and 2 differ" false (pairs_sig ~seed:1 = pairs_sig ~seed:2);
  Alcotest.(check bool) "requests: same seed" true (requests_sig ~seed:1 = requests_sig ~seed:1);
  Alcotest.(check bool) "requests: seeds 1 and 2 differ" false (requests_sig ~seed:1 = requests_sig ~seed:2)

(* the length factors of one batch fall one per log-stratum, whatever
   the seed *)
let batch_is_stratified () =
  List.iter
    (fun seed ->
       let n = Gen.cells_per_batch in
       let strata =
         List.map
           (fun (c : Gen.cell) ->
              Float.to_int (Float.log (c.Gen.factor /. 0.25) /. Float.log 40. *. float_of_int n))
           (Gen.cells ~seed ~batch:0)
       in
       Alcotest.(check (list int)) (Printf.sprintf "seed %d" seed) (List.init n Fun.id) (List.sort compare strata))
    [ 1; 2; 3 ]

let results_round_trip () =
  let doc =
    {
      Results.env =
        {
          Results.commit = "0123abcd";
          nproc = 2;
          jobs = 2;
          ocaml = "5.1.1";
          seed = 7;
          seconds = 20;
          aurix_env = [ ("AURIX_JOBS", "3") ];
        };
      runs =
        [
          {
            Results.workload = "random-coruns";
            traced = false;
            correct = true;
            attempted = 64;
            failed = 0;
            digest = "0a3b";
            metrics =
              [
                { Results.name = "ops_per_s"; value = 3.085; unit_ = "1/s"; n = 64 };
                { Results.name = "op_p50_ms"; value = 12.; unit_ = "ms"; n = 64 };
              ];
          };
          { Results.workload = "paper-grid"; traced = true; correct = false; attempted = 3; failed = 1; digest = ""; metrics = [] };
        ];
    }
  in
  match Results.of_string (Obs.Json.to_string (Results.to_json doc)) with
  | Ok d -> Alcotest.(check bool) "identical after a round trip" true (d = doc)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "regression rule" `Quick regression_rule;
          Alcotest.test_case "verdicts" `Quick verdict_rule;
          Alcotest.test_case "host-speed scale" `Quick probe_scale;
          Alcotest.test_case "seed determinism" `Quick seed_determinism;
          Alcotest.test_case "batches are stratified" `Quick batch_is_stratified;
          Alcotest.test_case "results round trip" `Quick results_round_trip;
        ] );
    ]
