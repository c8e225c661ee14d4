open Platform

let latency_of (config : Tcsim.Machine.config option) =
  match config with
  | Some c -> c.Tcsim.Machine.latency
  | None -> Tcsim.Machine.default_config.Tcsim.Machine.latency

(* Per-cell readings as dag nodes: prep (programs + preflight) feeds the
   two isolation simulations, which feed the counter lint. Every
   ablation shares this chain shape, so independent cells pipeline —
   one cell can be solving while another still simulates. *)
let readings_nodes ?config dag ~tag ~scenario ~load =
  let open Runtime.Dag in
  let latency = latency_of config in
  let lbl stage =
    Printf.sprintf "ablations/%s/%s/%s/%s" tag scenario.Scenario.name
      (Workload.Load_gen.level_to_string load) stage
  in
  let prep =
    node ~label:(lbl "prep") dag ~deps:[] (fun () ->
        let variant = Workload.Control_loop.variant_of_scenario scenario in
        let app = Workload.Control_loop.app variant in
        let contender = Workload.Load_gen.make ~variant ~level:load () in
        Analysis.Preflight.run ~latency ~scenario
          ~tasks:
            [
              { Analysis.Program_lint.label = "app"; core = 0; program = app };
              {
                Analysis.Program_lint.label = "contender";
                core = 1;
                program = contender;
              };
            ]
          ();
        (app, contender))
  in
  (* both isolation sims in one node; an isolation an earlier cell
     already measured (the app repeats across load levels) replays from
     the run cache *)
  let sims =
    node ~label:(lbl "sims") dag ~deps:[ dep prep ] (fun () ->
        let app, contender = get prep in
        let iso core p =
          (Mbta.Measurement.isolation ?config ~core p).Mbta.Measurement.counters
        in
        let a = iso 0 app in
        (a, iso 1 contender))
  in
  node ~label:(lbl "lint") dag ~deps:[ dep sims ]
    (fun () ->
      let a, b = get sims in
      Analysis.Preflight.guard
        (Analysis.Counter_lint.check ~latency ~scenario
           ~path:[ "isolation"; "app" ] a
         @ Analysis.Counter_lint.check ~latency ~scenario
             ~path:[ "isolation"; "contender" ] b);
      (a, b))

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
  let open Runtime.Dag in
  let dag = create () in
  let rows =
    List.map
      (fun (scenario, load) ->
         let r = readings_nodes ?config dag ~tag:"a1" ~scenario ~load in
         let lbl stage =
           Printf.sprintf "ablations/a1/%s/%s/%s" scenario.Scenario.name
             (Workload.Load_gen.level_to_string load) stage
         in
         let bound_node stage options =
           node ~label:(lbl stage) dag ~deps:[ dep r ] (fun () ->
               let a, b = get r in
               (Contention.Ilp_ptac.contention_bound_exn ~options ~latency
                  ~scenario ~a ~b ())
                 .Contention.Ilp_ptac.delta)
         in
         let with_info = bound_node "with_info" Contention.Ilp_ptac.default_options in
         let without_info =
           bound_node "without_info"
             {
               Contention.Ilp_ptac.default_options with
               Contention.Ilp_ptac.use_contender_info = false;
             }
         in
         let ftc =
           node ~label:(lbl "ftc") dag ~deps:[ dep r ] (fun () ->
               (Contention.Ftc.contention_bound
                  ~dirty:(scenario.Scenario.name = "scenario2")
                  ~latency ~a:(fst (get r)) ())
                 .Contention.Ftc.delta)
         in
         node ~label:(lbl "row") dag
           ~deps:[ dep with_info; dep without_info; dep ftc ]
           (fun () ->
             {
               a1_scenario = scenario.Scenario.name;
               a1_load = load;
               with_info = get with_info;
               without_info = get without_info;
               ftc_delta = get ftc;
             }))
      scenario_load_cells
  in
  Runtime.Dag.run ?jobs dag;
  List.map get rows

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
  let open Runtime.Dag in
  let dag = create () in
  let row_nodes =
    List.concat_map
      (fun scenario ->
         let r =
           readings_nodes ?config dag ~tag:"a2" ~scenario
             ~load:Workload.Load_gen.High
         in
         List.map
           (fun mode ->
              node
                ~label:
                  (Printf.sprintf "ablations/a2/%s/%s" scenario.Scenario.name
                     (mode_to_string mode))
                dag ~deps:[ dep r ]
                (fun () ->
                  let a, b = get r in
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
                  { a2_scenario = scenario.Scenario.name; mode; delta }))
           [
             Contention.Ilp_ptac.Exact;
             Contention.Ilp_ptac.Window;
             Contention.Ilp_ptac.Upper;
           ])
      [ Scenario.scenario1; Scenario.scenario2 ]
  in
  Runtime.Dag.run ?jobs dag;
  List.map get row_nodes

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
  let open Runtime.Dag in
  let latency = latency_of config in
  let lbl stage = Printf.sprintf "ablations/a3/%s/%s" scenario.Scenario.name stage in
  let dag = create () in
  let prep =
    node ~label:(lbl "prep") dag ~deps:[] (fun () ->
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
        (app, c1, c2))
  in
  (* the three isolation runs and the co-run are independent simulations *)
  let iso =
    node ~label:(lbl "iso_app") dag ~deps:[ dep prep ] (fun () ->
        let app, _, _ = get prep in
        Mbta.Measurement.isolation ?config ~core:0 app)
  in
  let iso_c1 =
    node ~label:(lbl "iso_c1") dag ~deps:[ dep prep ] (fun () ->
        let _, c1, _ = get prep in
        Mbta.Measurement.isolation ?config ~core:1 c1)
  in
  let iso_c2 =
    node ~label:(lbl "iso_c2") dag ~deps:[ dep prep ] (fun () ->
        let _, _, c2 = get prep in
        Mbta.Measurement.isolation ?config ~core:2 c2)
  in
  let corun =
    node ~label:(lbl "corun") dag ~deps:[ dep prep ] (fun () ->
        let app, c1, c2 = get prep in
        Mbta.Measurement.corun ?config ~analysis:(app, 0)
          ~contenders:[ (c1, 1); (c2, 2) ] ())
  in
  let bound =
    node ~label:(lbl "bound") dag
      ~deps:[ dep iso; dep iso_c1; dep iso_c2 ]
      (fun () ->
        Contention.Multi.contention_bound ~latency ~scenario
          ~a:(get iso).Mbta.Measurement.counters
          ~contenders:
            [
              (get iso_c1).Mbta.Measurement.counters;
              (get iso_c2).Mbta.Measurement.counters;
            ]
          ())
  in
  let result =
    node ~label:(lbl "result") dag
      ~deps:[ dep bound; dep corun; dep iso ]
      (fun () ->
        let bound = get bound in
        {
          a3_scenario = scenario.Scenario.name;
          isolation_cycles = (get iso).Mbta.Measurement.cycles;
          observed_two_contenders = (get corun).Mbta.Measurement.cycles;
          bound = Option.map (fun r -> r.Contention.Multi.delta) bound;
          per_contender =
            (match bound with
             | Some r ->
               List.map
                 (fun c -> c.Contention.Ilp_ptac.delta)
                 r.Contention.Multi.per_contender
             | None -> []);
        })
  in
  Runtime.Dag.run ?jobs dag;
  get result

(* --- A4: FSB reduction ------------------------------------------------------ *)

type a4_row = {
  a4_scenario : string;
  a4_load : Workload.Load_gen.level;
  crossbar_delta : int;
  fsb_delta : int;
}

let a4_fsb ?config ?jobs () =
  let latency = latency_of config in
  let open Runtime.Dag in
  let dag = create () in
  let rows =
    List.map
      (fun (scenario, load) ->
         let r = readings_nodes ?config dag ~tag:"a4" ~scenario ~load in
         let lbl stage =
           Printf.sprintf "ablations/a4/%s/%s/%s" scenario.Scenario.name
             (Workload.Load_gen.level_to_string load) stage
         in
         let crossbar =
           node ~label:(lbl "crossbar") dag ~deps:[ dep r ] (fun () ->
               let a, b = get r in
               (Contention.Ilp_ptac.contention_bound_exn ~latency ~scenario ~a
                  ~b ())
                 .Contention.Ilp_ptac.delta)
         in
         let fsb =
           node ~label:(lbl "fsb") dag ~deps:[ dep r ] (fun () ->
               let a, b = get r in
               (Contention.Fsb.contention_bound ~latency ~a ~b ())
                 .Contention.Fsb.delta)
         in
         node ~label:(lbl "row") dag
           ~deps:[ dep crossbar; dep fsb ]
           (fun () ->
             {
               a4_scenario = scenario.Scenario.name;
               a4_load = load;
               crossbar_delta = get crossbar;
               fsb_delta = get fsb;
             }))
      scenario_load_cells
  in
  Runtime.Dag.run ?jobs dag;
  List.map get rows

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
