type entry = { scenario : string; core : int; counters : Platform.Counters.t }

(* one (scenario, role) entry: program + preflight, isolation
   simulation, counter lint *)
let entry ?config (scenario, role) =
  let sim_core, report_core = match role with `App -> (0, 1) | `HLoad -> (1, 2) in
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let p =
    match role with
    | `App -> Workload.Control_loop.app variant
    | `HLoad -> Workload.Load_gen.make ~variant ~level:Workload.Load_gen.High ()
  in
  Analysis.Preflight.run ~scenario
    ~tasks:
      [
        {
          Analysis.Program_lint.label = Tcsim.Program.name p;
          core = sim_core;
          program = p;
        };
      ]
    ();
  let c =
    (Mbta.Measurement.isolation ?config ~core:sim_core p)
      .Mbta.Measurement.counters
  in
  Analysis.Preflight.guard
    (Analysis.Counter_lint.check ~scenario
       ~path:[ scenario.Platform.Scenario.name; Tcsim.Program.name p ]
       c);
  { scenario = scenario.Platform.Scenario.name; core = report_core; counters = c }

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
