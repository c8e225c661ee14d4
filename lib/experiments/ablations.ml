open Platform

let latency_of config =
  (Option.value config ~default:Tcsim.Machine.default_config).Tcsim.Machine.latency

(* One Figure 4 cell through every stage, and its isolation counters *)
let cell ?config ~scenario ~load () =
  let r = Cell.run (Cell.bundled ?config ~scenario ~load ()) in
  (r, r.readings.iso_app.counters, (List.hd r.readings.iso_contenders).counters)

(* --- A1: value of contender information ---------------------------------- *)

type a1_row = {
  a1_scenario : string;
  a1_load : Workload.Load_gen.level;
  with_info : int;
  without_info : int;
  ftc_delta : int;
}

let a1_contender_info ?config ?jobs () =
  let latency = latency_of config in
  Runtime.Pool.map ~label:"ablations/a1" ?jobs
    (fun (scenario, load) ->
       let r, a, b = cell ?config ~scenario ~load () in
       let without_info =
         Contention.Ilp_ptac.contention_bound_exn ~latency ~scenario
           ~options:
             {
               Contention.Ilp_ptac.default_options with
               Contention.Ilp_ptac.use_contender_info = false;
             }
           ~a ~b ()
       in
       {
         a1_scenario = scenario.Scenario.name;
         a1_load = load;
         with_info = (Option.get r.bounds.ilp).delta;
         without_info = without_info.Contention.Ilp_ptac.delta;
         ftc_delta = r.bounds.ftc.delta;
       })
    Figure4.paper_cells

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
       let _, a, b = cell ?config ~scenario ~load:Workload.Load_gen.High () in
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

let a3_multi_contender ?config ?jobs:_ scenario =
  Obs.Tracer.with_span "ablations.a3"
    ~attrs:(fun () -> [ ("scenario", scenario.Scenario.name) ])
  @@ fun () ->
  (* Figure 4's M-Load cell, plus an L-Load contender on core 2 *)
  let cell = Cell.bundled ?config ~scenario ~load:Workload.Load_gen.Medium () in
  let low =
    Workload.Load_gen.make
      ~variant:(Workload.Control_loop.variant_of_scenario scenario)
      ~level:Workload.Load_gen.Low ~region_slot:2 ()
  in
  let r =
    Cell.run ~corun:true
      { cell with contenders = cell.contenders @ [ Cell.task "contender2" 2 low ] }
  in
  {
    a3_scenario = scenario.Scenario.name;
    isolation_cycles = r.readings.iso_app.cycles;
    observed_two_contenders = (Option.get r.observed).cycles;
    bound = Option.map (fun (m : Contention.Multi.result) -> m.delta) r.bounds.ilp;
    per_contender =
      (match r.bounds.ilp with
       | Some { per_contender; _ } ->
         List.map (fun (c : Contention.Ilp_ptac.result) -> c.delta) per_contender
       | None -> []);
  }

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
       let r, a, b = cell ?config ~scenario ~load () in
       {
         a4_scenario = scenario.Scenario.name;
         a4_load = load;
         crossbar_delta = (Option.get r.bounds.ilp).delta;
         fsb_delta = (Contention.Fsb.contention_bound ~latency ~a ~b ()).delta;
       })
    Figure4.paper_cells

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
