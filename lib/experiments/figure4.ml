open Platform

type row = {
  scenario : string;
  load : Workload.Load_gen.level;
  isolation_cycles : int;
  observed_cycles : int;
  ftc : Mbta.Wcet.t;
  ilp : Mbta.Wcet.t;
  ideal_delta : int;
}

let run_row ?config ~scenario ~load () =
  Obs.Tracer.with_span "figure4.row"
    ~attrs:(fun () ->
        [
          ("scenario", scenario.Scenario.name);
          ("load", Workload.Load_gen.level_to_string load);
        ])
  @@ fun () ->
  let r = Cell.run ~corun:true (Cell.bundled ?config ~scenario ~load ()) in
  let isolation_cycles = r.readings.iso_app.cycles in
  let wcet delta = Mbta.Wcet.make ~isolation_cycles ~contention_cycles:delta in
  {
    scenario = scenario.Scenario.name;
    load;
    isolation_cycles;
    observed_cycles = (Option.get r.observed).cycles;
    ftc = wcet r.bounds.ftc.delta;
    ilp = wcet (Option.get r.bounds.ilp).delta;
    ideal_delta = r.bounds.ideal_delta;
  }

let cells scenarios =
  List.concat_map
    (fun scenario ->
       List.map (fun load -> (scenario, load)) Workload.Load_gen.all_levels)
    scenarios

let paper_cells = cells [ Scenario.scenario1; Scenario.scenario2 ]

(* one cell = one [run_row]; the pool overlaps cells, results come back
   in cell order *)
let run_cells ?config ?jobs cells =
  Runtime.Pool.map ~label:"figure4" ?jobs
    (fun (scenario, load) -> run_row ?config ~scenario ~load ())
    cells

let run_scenario ?config ?jobs scenario =
  run_cells ?config ?jobs (cells [ scenario ])

let run_all ?config ?jobs () = run_cells ?config ?jobs paper_cells

let sound row =
  Mbta.Wcet.upper_bounds row.ftc ~observed_cycles:row.observed_cycles
  && Mbta.Wcet.upper_bounds row.ilp ~observed_cycles:row.observed_cycles

let pp_rows fmt rows =
  Format.fprintf fmt
    "@[<v>%-10s %-7s %10s %10s %10s(x)   %10s(x)   %8s %s@,"
    "scenario" "load" "isolation" "observed" "fTC" "ILP-PTAC" "ideal" "sound";
  List.iter
    (fun r ->
       Format.fprintf fmt
         "%-10s %-7s %10d %10d %10d(%.2f) %10d(%.2f) %8d %s@," r.scenario
         (Workload.Load_gen.level_to_string r.load)
         r.isolation_cycles r.observed_cycles r.ftc.Mbta.Wcet.wcet
         r.ftc.Mbta.Wcet.ratio r.ilp.Mbta.Wcet.wcet r.ilp.Mbta.Wcet.ratio
         r.ideal_delta
         (if sound r then "yes" else "NO"))
    rows;
  Format.fprintf fmt "@]"
