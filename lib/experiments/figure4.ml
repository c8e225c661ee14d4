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

let latency_of (config : Tcsim.Machine.config option) =
  match config with
  | Some c -> c.Tcsim.Machine.latency
  | None -> Tcsim.Machine.default_config.Tcsim.Machine.latency

type readings = {
  app : Tcsim.Program.t;
  contender : Tcsim.Program.t;
  iso_app : Mbta.Measurement.observation;
  iso_contender : Mbta.Measurement.observation;
}

let readings ?config ~scenario ~load () =
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let latency = latency_of config in
  let app = Workload.Control_loop.app variant in
  let contender = Workload.Load_gen.make ~variant ~level:load () in
  (* pre-flight: scenario consistency and SRI-line disjointness of the
     co-running programs, before any simulation time is spent *)
  Analysis.Preflight.run ~latency ~scenario
    ~tasks:
      [
        { Analysis.Program_lint.label = "app"; core = 0; program = app };
        { Analysis.Program_lint.label = "contender"; core = 1; program = contender };
      ]
    ();
  (* isolation measurements: all the models may consume *)
  let iso_app = Mbta.Measurement.isolation ?config ~core:0 app in
  let iso_contender = Mbta.Measurement.isolation ?config ~core:1 contender in
  (* isolation readings feed the models as ground truth: reject corrupted
     read-outs (Table 4 invariants) rather than solving over them *)
  Analysis.Preflight.guard
    (Analysis.Counter_lint.check ~latency ~scenario ~path:[ "isolation"; "app" ]
       iso_app.Mbta.Measurement.counters
     @ Analysis.Counter_lint.check ~latency ~scenario
         ~path:[ "isolation"; "contender" ] iso_contender.Mbta.Measurement.counters);
  { app; contender; iso_app; iso_contender }

let run_row ?config ~scenario ~load () =
  Obs.Tracer.with_span "figure4.row"
    ~attrs:(fun () ->
        [
          ("scenario", scenario.Scenario.name);
          ("load", Workload.Load_gen.level_to_string load);
        ])
  @@ fun () ->
  let latency = latency_of config in
  let { app; contender; iso_app = iso_a; iso_contender = iso_b } =
    readings ?config ~scenario ~load ()
  in
  let a = iso_a.Mbta.Measurement.counters in
  let b = iso_b.Mbta.Measurement.counters in
  (* Scenario 2 has cacheable data everywhere, so the fTC model must assume
     dirty-miss delays (paper Section 4.1); the ILP charges the dirty LMU
     latency only when the contender can actually produce dirty misses. *)
  let is_s2 = scenario.Scenario.name = "scenario2" in
  let ftc_r = Contention.Ftc.contention_bound ~dirty:is_s2 ~latency ~a () in
  let ilp_options =
    {
      Contention.Ilp_ptac.default_options with
      Contention.Ilp_ptac.dirty_lmu = b.Counters.dcache_miss_dirty > 0;
    }
  in
  (* lint the ILP before handing it to the solver: a modelling bug should
     surface as a named diagnostic, not as a mysterious Infeasible *)
  let model, _ =
    Contention.Ilp_ptac.build_model ~options:ilp_options ~latency ~scenario ~a
      ~b ()
  in
  Analysis.Preflight.guard
    (Analysis.Model_lint.check ~path:[ "ilp-ptac"; scenario.Scenario.name ] model);
  let ilp_r =
    Contention.Ilp_ptac.contention_bound_exn ~options:ilp_options ~latency
      ~scenario ~a ~b ()
  in
  let ideal_delta =
    Contention.Ideal.contention_bound ~latency ~a:iso_a.Mbta.Measurement.ground_truth
      ~b:iso_b.Mbta.Measurement.ground_truth ()
  in
  (* observed multicore execution (contender does not restart, so its
     isolation readings cover everything it can do during the window) *)
  let corun =
    Mbta.Measurement.corun ?config ~analysis:(app, 0)
      ~contenders:[ (contender, 1) ] ()
  in
  let isolation_cycles = iso_a.Mbta.Measurement.cycles in
  {
    scenario = scenario.Scenario.name;
    load;
    isolation_cycles;
    observed_cycles = corun.Mbta.Measurement.cycles;
    ftc = Mbta.Wcet.make ~isolation_cycles ~contention_cycles:ftc_r.Contention.Ftc.delta;
    ilp = Mbta.Wcet.make ~isolation_cycles ~contention_cycles:ilp_r.Contention.Ilp_ptac.delta;
    ideal_delta;
  }

let cells scenarios =
  List.concat_map
    (fun scenario ->
       List.map (fun load -> (scenario, load)) Workload.Load_gen.all_levels)
    scenarios

(* one cell = one [run_row]; the pool overlaps cells, results come back
   in cell order *)
let run_cells ?config ?jobs cells =
  Runtime.Pool.map ~label:"figure4" ?jobs
    (fun (scenario, load) -> run_row ?config ~scenario ~load ())
    cells

let run_scenario ?config ?jobs scenario =
  run_cells ?config ?jobs (cells [ scenario ])

let run_all ?config ?jobs () =
  run_cells ?config ?jobs (cells [ Scenario.scenario1; Scenario.scenario2 ])

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
