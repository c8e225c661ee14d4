type entry = { scenario : string; core : int; counters : Platform.Counters.t }

(* one (scenario, role) entry: a cell of the program alone — preflight,
   isolation simulation, counter lint *)
let entry ?config (scenario, role) =
  let sim_core, report_core = match role with `App -> (0, 1) | `HLoad -> (1, 2) in
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let program =
    match role with
    | `App -> Workload.Control_loop.app variant
    | `HLoad -> Workload.Load_gen.make ~variant ~level:Workload.Load_gen.High ()
  in
  let app = Cell.task (Tcsim.Program.name program) sim_core program in
  let r = Cell.run { Cell.scenario; config; app; contenders = [] } in
  {
    scenario = scenario.Platform.Scenario.name;
    core = report_core;
    counters = r.readings.iso_app.counters;
  }

let run ?config ?jobs () =
  Runtime.Pool.map ~label:"table6" ?jobs (entry ?config)
    (List.concat_map
       (fun scenario -> [ (scenario, `App); (scenario, `HLoad) ])
       [ Platform.Scenario.scenario1; Platform.Scenario.scenario2 ])

let pp fmt entries =
  Format.fprintf fmt "@[<v>%-12s %-6s %8s %6s %6s %9s %9s@," "scenario" "core"
    "PM" "DMC" "DMD" "PS" "DS";
  List.iter
    (fun e ->
       Format.fprintf fmt "%-12s Core%-2d %a@," e.scenario e.core
         Platform.Counters.pp_row e.counters)
    entries;
  Format.fprintf fmt "@]"
