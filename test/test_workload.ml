(* Tests for the workload generators: deterministic RNG, exact-count
   calibration microbenchmarks, and the structural invariants the two
   deployment variants of the control-loop application must satisfy. *)

open Platform
open Workload

let lat = Latency.default

(* --- rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_pick () =
  let r = Rng.create ~seed:5 in
  let l = [ 1; 2; 3 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "picks member" true (List.mem (Rng.pick r l) l)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r []))

(* --- microbenchmarks ------------------------------------------------------ *)

let ground_truth p = (Mbta.Measurement.isolation p).Mbta.Measurement.ground_truth

let test_repeated_exact_counts () =
  List.iter
    (fun (t, o) ->
       let n = 100 in
       let p = Microbench.repeated ~target:t ~op:o ~n () in
       let profile = ground_truth p in
       Alcotest.(check int)
         (Printf.sprintf "exactly %d requests to (%s,%s)" n (Target.to_string t)
            (Op.to_string o))
         n
         (Access_profile.get profile t o);
       Alcotest.(check int) "and nothing else" n (Access_profile.total profile))
    Op.valid_pairs

let test_repeated_cacheable_data_counts () =
  (* cacheable windows must still produce exact counts (thrashing span) *)
  List.iter
    (fun t ->
       let n = 300 in
       let p = Microbench.repeated ~target:t ~op:Op.Data ~n ~cacheable:true () in
       let profile = ground_truth p in
       Alcotest.(check int)
         (Printf.sprintf "cacheable data to %s" (Target.to_string t))
         n
         (Access_profile.get profile t Op.Data))
    [ Target.Pf0; Target.Pf1; Target.Lmu ]

let test_repeated_validation () =
  (try
     ignore (Microbench.repeated ~target:Target.Dfl ~op:Op.Code ~n:1 ());
     Alcotest.fail "dfl code must be rejected"
   with Invalid_argument _ -> ());
  (try
     ignore (Microbench.repeated ~target:Target.Dfl ~op:Op.Data ~n:1 ~cacheable:true ());
     Alcotest.fail "cacheable dfl must be rejected"
   with Invalid_argument _ -> ())

let test_probe_deltas () =
  (* covered in depth by the Table 2 experiment; spot-check one pair here *)
  let probe, base = Microbench.single_probe ~target:Target.Dfl ~op:Op.Data () in
  let c p = (Mbta.Measurement.isolation p).Mbta.Measurement.cycles in
  Alcotest.(check int) "dfl lmax" (Latency.lmax lat Target.Dfl Op.Data) (c probe - c base)

(* --- control loop ---------------------------------------------------------- *)

let obs variant = Mbta.Measurement.isolation (Control_loop.app variant)

let test_sc1_profile_invariants () =
  let o = obs Control_loop.S1 in
  let p = o.Mbta.Measurement.ground_truth in
  (* Scenario 1 generates no dfl traffic, no lmu code, no pf data *)
  List.iter
    (fun (t, op) ->
       Alcotest.(check int)
         (Printf.sprintf "no (%s,%s) traffic" (Target.to_string t) (Op.to_string op))
         0
         (Access_profile.get p t op))
    (Scenario.zero_pairs Scenario.scenario1);
  (* all SRI code is cacheable: PCACHE_MISS is the exact code count *)
  Alcotest.(check int) "PM exact"
    o.Mbta.Measurement.counters.Counters.pcache_miss
    (Access_profile.total_op p Op.Code);
  (* no cacheable data at all *)
  Alcotest.(check int) "DMC zero" 0 o.Mbta.Measurement.counters.Counters.dcache_miss_clean;
  Alcotest.(check int) "DMD zero" 0 o.Mbta.Measurement.counters.Counters.dcache_miss_dirty

let test_sc2_profile_invariants () =
  let o = obs Control_loop.S2 in
  let p = o.Mbta.Measurement.ground_truth in
  let c = o.Mbta.Measurement.counters in
  List.iter
    (fun (t, op) ->
       Alcotest.(check int)
         (Printf.sprintf "no (%s,%s) traffic" (Target.to_string t) (Op.to_string op))
         0
         (Access_profile.get p t op))
    (Scenario.zero_pairs Scenario.scenario2);
  Alcotest.(check int) "PM exact" c.Counters.pcache_miss (Access_profile.total_op p Op.Code);
  (* read-only cacheable data: clean misses only, and only cold ones *)
  Alcotest.(check int) "DMD zero" 0 c.Counters.dcache_miss_dirty;
  Alcotest.(check bool) "small DMC (cold misses only)" true
    (c.Counters.dcache_miss_clean > 0 && c.Counters.dcache_miss_clean <= 256);
  (* pf receives data traffic in scenario 2 (the same-slave mixing that
     makes it challenging) *)
  Alcotest.(check bool) "pf data traffic present" true
    (Access_profile.get p Target.Pf0 Op.Data + Access_profile.get p Target.Pf1 Op.Data > 0)

let test_sc2_doubles_code_traffic () =
  let c1 = (obs Control_loop.S1).Mbta.Measurement.counters in
  let c2 = (obs Control_loop.S2).Mbta.Measurement.counters in
  Alcotest.(check bool) "PM roughly doubles (Table 6 signature)" true
    (c2.Counters.pcache_miss > (3 * c1.Counters.pcache_miss) / 2);
  Alcotest.(check bool) "DS collapses (Table 6 signature)" true
    (c2.Counters.dmem_stall * 2 < c1.Counters.dmem_stall)

let test_deployment_conformance () =
  (* every SRI access pair of the generated apps is admissible under the
     scenario's deployment *)
  List.iter
    (fun (variant, scenario) ->
       let p = (obs variant).Mbta.Measurement.ground_truth in
       let allowed = Scenario.allowed_pairs scenario in
       Access_profile.fold
         (fun t o n () ->
            if n > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "(%s,%s) allowed" (Target.to_string t) (Op.to_string o))
                true
                (List.exists
                   (fun (t', o') -> Target.equal t t' && Op.equal o o')
                   allowed))
         p ())
    [ (Control_loop.S1, Scenario.scenario1); (Control_loop.S2, Scenario.scenario2) ]

let test_build_validation () =
  (try
     ignore
       (Control_loop.build Control_loop.S1
          { Control_loop.default_params with Control_loop.lmu_region = 31 * 1024 });
     Alcotest.fail "LMU overflow must be rejected"
   with Invalid_argument _ -> ())

let test_variant_of_scenario () =
  Alcotest.(check bool) "sc1" true
    (Control_loop.variant_of_scenario Scenario.scenario1 = Control_loop.S1);
  Alcotest.(check bool) "sc2" true
    (Control_loop.variant_of_scenario Scenario.scenario2 = Control_loop.S2);
  Alcotest.(check bool) "unrestricted -> S1" true
    (Control_loop.variant_of_scenario Scenario.unrestricted = Control_loop.S1)

(* --- load generators ---------------------------------------------------------- *)

let contender_obs variant level =
  Mbta.Measurement.isolation ~core:1 (Load_gen.make ~variant ~level ())

let test_load_gradient () =
  List.iter
    (fun variant ->
       let traffic level =
         Access_profile.total (contender_obs variant level).Mbta.Measurement.ground_truth
       in
       let h = traffic Load_gen.High
       and m = traffic Load_gen.Medium
       and l = traffic Load_gen.Low in
       Alcotest.(check bool)
         (Printf.sprintf "H(%d) > M(%d) > L(%d)" h m l)
         true
         (h > m && m > l && l > 0))
    [ Control_loop.S1; Control_loop.S2 ]

let test_load_durations_comparable () =
  (* co-runners must not finish long before the application: their
     isolation duration stays within a factor of the app's *)
  List.iter
    (fun variant ->
       let app_cycles = (obs variant).Mbta.Measurement.cycles in
       List.iter
         (fun level ->
            let c = (contender_obs variant level).Mbta.Measurement.cycles in
            Alcotest.(check bool)
              (Printf.sprintf "%s duration %d vs app %d"
                 (Load_gen.level_to_string level) c app_cycles)
              true
              (c >= app_cycles / 2))
         Load_gen.all_levels)
    [ Control_loop.S1; Control_loop.S2 ]

let test_region_slots_disjoint () =
  (* tasks in different slots never touch the same LMU bytes or pf lines *)
  let p0 = Load_gen.params ~variant:Control_loop.S1 ~level:Load_gen.High ~region_slot:0 in
  let p1 = Load_gen.params ~variant:Control_loop.S1 ~level:Load_gen.High ~region_slot:1 in
  Alcotest.(check bool) "lmu windows disjoint" true
    (abs (p0.Control_loop.lmu_region - p1.Control_loop.lmu_region) >= 10 * 1024);
  Alcotest.(check bool) "pf windows disjoint" true
    (abs (p0.Control_loop.pf_region - p1.Control_loop.pf_region) >= 0x40000)

(* --- shared programs ------------------------------------------------------------- *)

let variants = [ Control_loop.S1; Control_loop.S2 ]

(* every bundled program, as (label, request, fresh build) *)
let bundled =
  List.concat_map
    (fun variant ->
       let v = match variant with Control_loop.S1 -> "S1" | Control_loop.S2 -> "S2" in
       ( "app " ^ v,
         (fun () -> Control_loop.app variant),
         fun () ->
           List.hd (Control_loop.app_input_variants variant ~n:1) )
       :: List.concat_map
            (fun level ->
               List.map
                 (fun region_slot ->
                    ( Printf.sprintf "%s %s slot %d" v (Load_gen.level_to_string level)
                        region_slot,
                      (fun () -> Load_gen.make ~variant ~level ~region_slot ()),
                      fun () ->
                        Control_loop.build variant
                          (Load_gen.params ~variant ~level ~region_slot) ))
                 [ 0; 1; 2 ])
            Load_gen.all_levels)
    variants

(* Runs first, while no bundled program has been built: 4 domains ask
   for all of them at once, each in its own order, and must all get the
   one published value. *)
let test_shared_concurrent_first_requests () =
  let requests = Array.of_list (List.map (fun (_, get, _) -> get) bundled) in
  let n = Array.length requests in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let got = Array.make n None in
            for i = 0 to n - 1 do
              (* a rotation, reversed in odd domains *)
              let j = if d mod 2 = 0 then i else n - 1 - i in
              let k = (j + (d * 5)) mod n in
              got.(k) <- Some (requests.(k) ())
            done;
            Array.map Option.get got))
  in
  let results = List.map Domain.join domains in
  List.iteri
    (fun k (label, get, fresh) ->
       let p = get () in
       List.iteri
         (fun d got ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: domain %d got the published value" label d)
              true (got.(k) == p))
         results;
       Alcotest.(check bool)
         (label ^ ": items of a fresh build") true
         (Tcsim.Program.items p = Tcsim.Program.items (fresh ())))
    bundled

let test_shared_values () =
  List.iter
    (fun (label, get, fresh) ->
       Alcotest.(check bool) (label ^ " is one value") true (get () == get ());
       Alcotest.(check bool)
         (label ^ " equals a fresh build item for item") true
         (Tcsim.Program.items (get ()) = Tcsim.Program.items (fresh ())))
    bundled;
  Alcotest.(check int) "18 contenders + 2 apps" 20 (List.length bundled);
  (* the default slot is slot 1 *)
  Alcotest.(check bool)
    "default slot" true
    (Load_gen.make ~variant:Control_loop.S1 ~level:Load_gen.High ()
     == Load_gen.make ~variant:Control_loop.S1 ~level:Load_gen.High ~region_slot:1 ())

let test_shared_slot_range () =
  List.iter
    (fun region_slot ->
       match Load_gen.make ~variant:Control_loop.S2 ~level:Load_gen.Low ~region_slot () with
       | _ -> Alcotest.failf "slot %d accepted" region_slot
       | exception Invalid_argument _ -> ())
    [ -1; 3; 4; max_int ]

(* --- engine control and DMA ----------------------------------------------------- *)

let test_engine_control_profile () =
  let o = Mbta.Measurement.isolation (Engine_control.task ()) in
  let c = o.Mbta.Measurement.counters in
  let p = o.Mbta.Measurement.ground_truth in
  (* scenario-1 conventions: cacheable flash code, lmu n$ data only *)
  Alcotest.(check int) "no dfl traffic" 0 (Access_profile.get p Target.Dfl Op.Data);
  Alcotest.(check int) "no lmu code" 0 (Access_profile.get p Target.Lmu Op.Code);
  Alcotest.(check int) "PM exact" c.Counters.pcache_miss
    (Access_profile.total_op p Op.Code);
  (* the point of the profile: an order of magnitude less SRI traffic
     than the stress application *)
  let stress =
    (Mbta.Measurement.isolation (Control_loop.app Control_loop.S1)).Mbta.Measurement.ground_truth
  in
  Alcotest.(check bool) "low traffic" true
    (Access_profile.total p * 4 < Access_profile.total stress)

let test_dma_exact_counts () =
  let schedule = { Dma.default_schedule with Dma.bursts = 40 } in
  let spec = Dma.access_profile schedule in
  let config = Experiments.Dma_study.machine_config_with_dma in
  let o = Mbta.Measurement.isolation ~config ~core:3 (Dma.program ~schedule ()) in
  Alcotest.(check bool) "simulated profile = specification" true
    (Access_profile.equal o.Mbta.Measurement.ground_truth spec);
  (* the synthesized stall reading never exceeds the measured one: the
     specification uses the per-request minimum *)
  let synth = Dma.synthesized_counters Latency.default schedule in
  Alcotest.(check bool) "synthesized DS is a lower bound" true
    (synth.Counters.dmem_stall <= o.Mbta.Measurement.counters.Counters.dmem_stall)

let test_dma_validation () =
  let expect_invalid s =
    try
      ignore (Dma.program ~schedule:s ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid { Dma.default_schedule with Dma.dst = Target.Pf0 };
  expect_invalid { Dma.default_schedule with Dma.words_per_burst = 0 }

let () =
  Alcotest.run "workload"
    [
      (* first: its concurrency case needs the bundled programs unbuilt *)
      ( "shared-programs",
        [
          Alcotest.test_case "concurrent first requests" `Quick
            test_shared_concurrent_first_requests;
          Alcotest.test_case "one value per program" `Quick test_shared_values;
          Alcotest.test_case "slots outside 0..2 rejected" `Quick test_shared_slot_range;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "microbench",
        [
          Alcotest.test_case "exact request counts" `Quick test_repeated_exact_counts;
          Alcotest.test_case "cacheable data counts" `Quick test_repeated_cacheable_data_counts;
          Alcotest.test_case "validation" `Quick test_repeated_validation;
          Alcotest.test_case "probe deltas" `Quick test_probe_deltas;
        ] );
      ( "control-loop",
        [
          Alcotest.test_case "scenario1 invariants" `Quick test_sc1_profile_invariants;
          Alcotest.test_case "scenario2 invariants" `Quick test_sc2_profile_invariants;
          Alcotest.test_case "scenario2 vs scenario1" `Quick test_sc2_doubles_code_traffic;
          Alcotest.test_case "deployment conformance" `Quick test_deployment_conformance;
          Alcotest.test_case "window validation" `Quick test_build_validation;
          Alcotest.test_case "variant mapping" `Quick test_variant_of_scenario;
        ] );
      ( "load-gen",
        [
          Alcotest.test_case "H > M > L traffic" `Quick test_load_gradient;
          Alcotest.test_case "comparable durations" `Quick test_load_durations_comparable;
          Alcotest.test_case "disjoint region slots" `Quick test_region_slots_disjoint;
        ] );
      ( "engine-dma",
        [
          Alcotest.test_case "engine-control profile" `Quick test_engine_control_profile;
          Alcotest.test_case "DMA exact counts" `Quick test_dma_exact_counts;
          Alcotest.test_case "DMA validation" `Quick test_dma_validation;
        ] );
    ]
