open Platform

type result = {
  isolation_cycles : int;
  observed_cycles : int;
  ftc : Mbta.Wcet.t;
  ilp : Mbta.Wcet.t;
  stress_ilp_ratio : float;
}

let run ?config ?jobs () =
  let scenario = Scenario.scenario1 in
  (* Figure 4's Scenario 1 H-Load cell with the engine-control task *)
  let cell =
    {
      (Cell.bundled ?config ~scenario ~load:Workload.Load_gen.High ()) with
      app = Cell.task "app" 0 (Workload.Engine_control.task ());
    }
  in
  (* the engine-control cell and the stress reference row are
     independent simulate-then-solve jobs *)
  match
    Runtime.Pool.run_all ?jobs
      [
        (fun () -> `Cell (Cell.run ~corun:true cell));
        (fun () ->
           `Row (Figure4.run_row ?config ~scenario ~load:Workload.Load_gen.High ()));
      ]
  with
  | [ `Cell r; `Row stress ] ->
    let isolation_cycles = r.readings.iso_app.cycles in
    let wcet delta = Mbta.Wcet.make ~isolation_cycles ~contention_cycles:delta in
    {
      isolation_cycles;
      observed_cycles = (Option.get r.observed).cycles;
      ftc = wcet r.bounds.ftc.delta;
      ilp = wcet (Option.get r.bounds.ilp).delta;
      stress_ilp_ratio = stress.Figure4.ilp.Mbta.Wcet.ratio;
    }
  | _ -> assert false

let sound r =
  Mbta.Wcet.upper_bounds r.ftc ~observed_cycles:r.observed_cycles
  && Mbta.Wcet.upper_bounds r.ilp ~observed_cycles:r.observed_cycles

let pp fmt r =
  Format.fprintf fmt
    "@[<v>engine-control task vs H-Load (scenario 1 deployment):@,\
     isolation %d, observed %d@,\
     fTC      %a@,\
     ILP-PTAC %a@,\
     stress application ILP ratio under the same contender: x%.2f@,\
     contention bound as fraction of isolation: %.1f%% (stress: %.1f%%)@,\
     sound: %s@]"
    r.isolation_cycles r.observed_cycles Mbta.Wcet.pp r.ftc Mbta.Wcet.pp r.ilp
    r.stress_ilp_ratio
    ((r.ilp.Mbta.Wcet.ratio -. 1.0) *. 100.)
    ((r.stress_ilp_ratio -. 1.0) *. 100.)
    (if sound r then "yes" else "NO")
