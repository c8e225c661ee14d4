open Platform

type result = {
  scenario : string;
  isolation_cycles : int;
  observed_same_class : int;
  observed_prioritised : int;
  multi_ilp_bound : int option;
  blocking_bound : int;
  max_wait_same_class : int;
  max_wait_prioritised : int;
}

let run ?(scenario = Scenario.scenario1) ?jobs () =
  let latency = Latency.default in
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let app = Workload.Control_loop.app variant in
  let c1 = Workload.Load_gen.make ~variant ~level:Workload.Load_gen.Medium ~region_slot:1 () in
  let c2 = Workload.Load_gen.make ~variant ~level:Workload.Load_gen.Low ~region_slot:2 () in
  (* both arbitration co-runs differ only in the priority map: run back
     to back, the second reads every script the first compiled from the
     script memo *)
  let coruns () =
    let corun priorities =
      Runtime.Run_cache.run ~restart_contenders:false ~priorities ~trace:true
        ~analysis:{ Tcsim.Machine.program = app; core = 0 }
        ~contenders:
          [
            { Tcsim.Machine.program = c1; core = 1 };
            { Tcsim.Machine.program = c2; core = 2 };
          ]
        ()
    in
    let same = corun [| 0; 0; 0 |] in
    (same, corun [| 0; 1; 1 |])
  in
  (* the three isolation runs and the pair of co-runs are independent
     simulations: one batch *)
  let iso core p = Either.Left (Mbta.Measurement.isolation ~core p) in
  match
    Runtime.Pool.run_all ~label:"priority" ?jobs
      [
        (fun () -> iso 0 app);
        (fun () -> iso 1 c1);
        (fun () -> iso 2 c2);
        (fun () -> Either.Right (coruns ()));
      ]
  with
  | [ Left iso; Left iso_c1; Left iso_c2; Right (same, prio) ] ->
    let a = iso.Mbta.Measurement.counters in
    let multi =
      Contention.Multi.contention_bound ~latency ~scenario ~a
        ~contenders:
          [ iso_c1.Mbta.Measurement.counters; iso_c2.Mbta.Measurement.counters ]
        ()
    in
    let max_wait (r : Tcsim.Machine.run_result) =
      Tcsim.Trace.max_wait (Tcsim.Trace.of_core r.Tcsim.Machine.trace 0)
    in
    {
      scenario = scenario.Scenario.name;
      isolation_cycles = iso.Mbta.Measurement.cycles;
      observed_same_class = same.Tcsim.Machine.cycles;
      observed_prioritised = prio.Tcsim.Machine.cycles;
      multi_ilp_bound = Option.map (fun r -> r.Contention.Multi.delta) multi;
      blocking_bound =
        (Contention.Priority.contention_bound ~latency ~a ())
          .Contention.Priority.delta;
      max_wait_same_class = max_wait same;
      max_wait_prioritised = max_wait prio;
    }
  | _ -> assert false

let sound r =
  (match r.multi_ilp_bound with
   | Some b -> r.isolation_cycles + b >= r.observed_same_class
   | None -> false)
  && r.isolation_cycles + r.blocking_bound >= r.observed_prioritised

let pp fmt r =
  Format.fprintf fmt
    "@[<v>%s, application vs M-Load + L-Load:@,\
     isolation                 %d cycles@,\
     same class   observed %d (max per-request wait %d); multi-ILP bound %s@,\
     prioritised  observed %d (max per-request wait %d); blocking bound %d@,\
     sound: %s@]"
    r.scenario r.isolation_cycles r.observed_same_class r.max_wait_same_class
    (match r.multi_ilp_bound with
     | Some b -> string_of_int (r.isolation_cycles + b)
     | None -> "infeasible")
    r.observed_prioritised r.max_wait_prioritised
    (r.isolation_cycles + r.blocking_bound)
    (if sound r then "yes" else "NO")
