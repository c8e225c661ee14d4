open Platform

let latency_of = Figure4.latency_of

(* One cell's isolation counters: the Figure 4 cell's readings. An
   isolation an earlier cell already measured (the app repeats across
   load levels) replays from the run cache. *)
let readings ?config ~scenario ~load () =
  let r = Figure4.readings ?config ~scenario ~load () in
  ( r.Figure4.iso_app.Mbta.Measurement.counters,
    r.Figure4.iso_contender.Mbta.Measurement.counters )

(* --- A1: value of contender information ---------------------------------- *)

type a1_row = {
  a1_scenario : string;
  a1_load : Workload.Load_gen.level;
  with_info : int;
  without_info : int;
  ftc_delta : int;
}

let scenario_load_cells =
  List.concat_map
    (fun scenario ->
       List.map (fun load -> (scenario, load)) Workload.Load_gen.all_levels)
    [ Scenario.scenario1; Scenario.scenario2 ]

let a1_contender_info ?config ?jobs () =
  let latency = latency_of config in
  Runtime.Pool.map ~label:"ablations/a1" ?jobs
    (fun (scenario, load) ->
       let a, b = readings ?config ~scenario ~load () in
       let bound options =
         (Contention.Ilp_ptac.contention_bound_exn ~options ~latency ~scenario
            ~a ~b ())
           .Contention.Ilp_ptac.delta
       in
       let with_info = bound Contention.Ilp_ptac.default_options in
       let without_info =
         bound
           {
             Contention.Ilp_ptac.default_options with
             Contention.Ilp_ptac.use_contender_info = false;
           }
       in
       {
         a1_scenario = scenario.Scenario.name;
         a1_load = load;
         with_info;
         without_info;
         ftc_delta =
           (Contention.Ftc.contention_bound
              ~dirty:(scenario.Scenario.name = "scenario2")
              ~latency ~a ())
             .Contention.Ftc.delta;
       })
    scenario_load_cells

(* --- A2: stall-equality encodings ----------------------------------------- *)

type a2_row = {
  a2_scenario : string;
  mode : Contention.Ilp_ptac.equality_mode;
  delta : int option;
}

let mode_to_string = function
  | Contention.Ilp_ptac.Exact -> "exact"
  | Contention.Ilp_ptac.Window -> "window"
  | Contention.Ilp_ptac.Upper -> "upper"

let a2_equality_modes ?config ?jobs () =
  let latency = latency_of config in
  (* one cell per scenario: the three modes share its readings *)
  Runtime.Pool.map ~label:"ablations/a2" ?jobs
    (fun scenario ->
       let a, b = readings ?config ~scenario ~load:Workload.Load_gen.High () in
       List.map
         (fun mode ->
            let options =
              {
                Contention.Ilp_ptac.default_options with
                Contention.Ilp_ptac.equality_mode = mode;
              }
            in
            let delta =
              Option.map
                (fun r -> r.Contention.Ilp_ptac.delta)
                (Contention.Ilp_ptac.contention_bound ~options ~latency
                   ~scenario ~a ~b ())
            in
            { a2_scenario = scenario.Scenario.name; mode; delta })
         [
           Contention.Ilp_ptac.Exact;
           Contention.Ilp_ptac.Window;
           Contention.Ilp_ptac.Upper;
         ])
    [ Scenario.scenario1; Scenario.scenario2 ]
  |> List.concat

(* --- A3: two simultaneous contenders --------------------------------------- *)

type a3_result = {
  a3_scenario : string;
  isolation_cycles : int;
  observed_two_contenders : int;
  bound : int option;
  per_contender : int list;
}

let a3_multi_contender ?config ?jobs scenario =
  Obs.Tracer.with_span "ablations.a3"
    ~attrs:(fun () -> [ ("scenario", scenario.Scenario.name) ])
  @@ fun () ->
  let latency = latency_of config in
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let app = Workload.Control_loop.app variant in
  let c1 =
    Workload.Load_gen.make ~variant ~level:Workload.Load_gen.Medium
      ~region_slot:1 ()
  in
  let c2 =
    Workload.Load_gen.make ~variant ~level:Workload.Load_gen.Low
      ~region_slot:2 ()
  in
  Analysis.Preflight.run ~latency ~scenario
    ~tasks:
      [
        { Analysis.Program_lint.label = "app"; core = 0; program = app };
        { Analysis.Program_lint.label = "contender1"; core = 1; program = c1 };
        { Analysis.Program_lint.label = "contender2"; core = 2; program = c2 };
      ]
    ();
  (* the three isolation runs and the co-run are independent simulations *)
  match
    Runtime.Pool.run_all ~label:"ablations/a3" ?jobs
      [
        (fun () -> Mbta.Measurement.isolation ?config ~core:0 app);
        (fun () -> Mbta.Measurement.isolation ?config ~core:1 c1);
        (fun () -> Mbta.Measurement.isolation ?config ~core:2 c2);
        (fun () ->
          Mbta.Measurement.corun ?config ~analysis:(app, 0)
            ~contenders:[ (c1, 1); (c2, 2) ] ());
      ]
  with
  | [ iso; iso_c1; iso_c2; corun ] ->
    let bound =
      Contention.Multi.contention_bound ~latency ~scenario
        ~a:iso.Mbta.Measurement.counters
        ~contenders:
          [ iso_c1.Mbta.Measurement.counters; iso_c2.Mbta.Measurement.counters ]
        ()
    in
    {
      a3_scenario = scenario.Scenario.name;
      isolation_cycles = iso.Mbta.Measurement.cycles;
      observed_two_contenders = corun.Mbta.Measurement.cycles;
      bound = Option.map (fun r -> r.Contention.Multi.delta) bound;
      per_contender =
        (match bound with
         | Some r ->
           List.map
             (fun c -> c.Contention.Ilp_ptac.delta)
             r.Contention.Multi.per_contender
         | None -> []);
    }
  | _ -> assert false

(* --- A4: FSB reduction ------------------------------------------------------ *)

type a4_row = {
  a4_scenario : string;
  a4_load : Workload.Load_gen.level;
  crossbar_delta : int;
  fsb_delta : int;
}

let a4_fsb ?config ?jobs () =
  let latency = latency_of config in
  Runtime.Pool.map ~label:"ablations/a4" ?jobs
    (fun (scenario, load) ->
       let a, b = readings ?config ~scenario ~load () in
       let crossbar =
         Contention.Ilp_ptac.contention_bound_exn ~latency ~scenario ~a ~b ()
       in
       let fsb = Contention.Fsb.contention_bound ~latency ~a ~b () in
       {
         a4_scenario = scenario.Scenario.name;
         a4_load = load;
         crossbar_delta = crossbar.Contention.Ilp_ptac.delta;
         fsb_delta = fsb.Contention.Fsb.delta;
       })
    scenario_load_cells

(* --- printers ---------------------------------------------------------------- *)

let pp_a1 fmt rows =
  Format.fprintf fmt "@[<v>%-10s %-7s %12s %12s %12s@," "scenario" "load"
    "ILP+info" "ILP-noinfo" "fTC";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-10s %-7s %12d %12d %12d@," r.a1_scenario
         (Workload.Load_gen.level_to_string r.a1_load)
         r.with_info r.without_info r.ftc_delta)
    rows;
  Format.fprintf fmt "@]"

let pp_a2 fmt rows =
  Format.fprintf fmt "@[<v>%-10s %-8s %12s@," "scenario" "mode" "delta";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-10s %-8s %12s@," r.a2_scenario (mode_to_string r.mode)
         (match r.delta with Some d -> string_of_int d | None -> "infeasible"))
    rows;
  Format.fprintf fmt "@]"

let pp_a3 fmt r =
  Format.fprintf fmt
    "@[<v>%s, two contenders (M-Load + L-Load):@,\
     isolation=%d observed=%d bound=%s per-contender=[%s] sound=%s@]"
    r.a3_scenario r.isolation_cycles r.observed_two_contenders
    (match r.bound with Some b -> string_of_int (r.isolation_cycles + b) | None -> "infeasible")
    (String.concat "; " (List.map string_of_int r.per_contender))
    (match r.bound with
     | Some b -> if r.isolation_cycles + b >= r.observed_two_contenders then "yes" else "NO"
     | None -> "-")

let pp_a4 fmt rows =
  Format.fprintf fmt "@[<v>%-10s %-7s %12s %12s@," "scenario" "load" "crossbar" "FSB";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-10s %-7s %12d %12d@," r.a4_scenario
         (Workload.Load_gen.level_to_string r.a4_load)
         r.crossbar_delta r.fsb_delta)
    rows;
  Format.fprintf fmt "@]"
