open Platform

type app = {
  name : string;
  program : Tcsim.Program.t;
  period : int;
  deadline : int option;
  priority : int;
  core : int;
}

type inflation = {
  app : app;
  isolation_cycles : int;
  ftc_wcet : int;
  ilp_wcet : int;
}

type t = {
  scenario : Scenario.t;
  inflations : inflation list;
  isolation_rta : (int * Rta.t) list;
  ftc_rta : (int * Rta.t) list;
  ilp_rta : (int * Rta.t) list;
}

let counter_envelope (observations : Counters.t list) =
  match observations with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun (acc : Counters.t) (c : Counters.t) ->
            {
              Counters.ccnt = max acc.Counters.ccnt c.Counters.ccnt;
              pmem_stall = max acc.Counters.pmem_stall c.Counters.pmem_stall;
              dmem_stall = max acc.Counters.dmem_stall c.Counters.dmem_stall;
              pcache_miss = max acc.Counters.pcache_miss c.Counters.pcache_miss;
              dcache_miss_clean =
                max acc.Counters.dcache_miss_clean c.Counters.dcache_miss_clean;
              dcache_miss_dirty =
                max acc.Counters.dcache_miss_dirty c.Counters.dcache_miss_dirty;
            })
         first rest)

let integrate ?config ?options ?jobs ~scenario apps =
  if apps = [] then invalid_arg "Integration.integrate: empty system";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
       let key = (a.core, a.priority) in
       if Hashtbl.mem seen key then
         invalid_arg
           (Printf.sprintf "Integration.integrate: core %d priority %d used twice"
              a.core a.priority);
       Hashtbl.add seen key ())
    apps;
  let latency =
    match config with
    | Some c -> c.Tcsim.Machine.latency
    | None -> Tcsim.Machine.default_config.Tcsim.Machine.latency
  in
  let measured =
    Runtime.Pool.map ?jobs
      (fun a -> (a, Mbta.Measurement.isolation ?config ~core:a.core a.program))
      apps
  in
  let cores = List.sort_uniq compare (List.map (fun a -> a.core) apps) in
  let envelope_of core =
    counter_envelope
      (List.filter_map
         (fun (a, o) ->
            if a.core = core then Some o.Mbta.Measurement.counters else None)
         measured)
  in
  let dirty = Contention.Ftc.dirty_misses scenario in
  let inflations =
    List.map
      (fun (a, (o : Mbta.Measurement.observation)) ->
         let counters = o.Mbta.Measurement.counters in
         let other_envelopes =
           List.filter_map
             (fun c -> if c = a.core then None else envelope_of c)
             cores
         in
         let ftc_delta =
           if other_envelopes = [] then 0
           else
             (List.length other_envelopes)
             * (Contention.Ftc.contention_bound ~dirty ~latency ~a:counters ())
                 .Contention.Ftc.delta
         in
         let ilp_delta =
           if other_envelopes = [] then 0
           else begin
             match
               Contention.Multi.contention_bound ?options ~latency ~scenario
                 ~a:counters ~contenders:other_envelopes ()
             with
             | Some r -> r.Contention.Multi.delta
             | None ->
               invalid_arg
                 (Printf.sprintf
                    "Integration.integrate: infeasible contention model for %s"
                    a.name)
           end
         in
         {
           app = a;
           isolation_cycles = o.Mbta.Measurement.cycles;
           ftc_wcet = o.Mbta.Measurement.cycles + ftc_delta;
           ilp_wcet = o.Mbta.Measurement.cycles + ilp_delta;
         })
      measured
  in
  let rta_under wcet_of =
    List.map
      (fun core ->
         let tasks =
           List.filter_map
             (fun inf ->
                if inf.app.core = core then
                  Some
                    (Task.make ~name:inf.app.name ~period:inf.app.period
                       ?deadline:inf.app.deadline ~wcet:(wcet_of inf)
                       ~priority:inf.app.priority ())
                else None)
             inflations
         in
         (core, Rta.analyse tasks))
      cores
  in
  {
    scenario;
    inflations;
    isolation_rta = rta_under (fun i -> i.isolation_cycles);
    ftc_rta = rta_under (fun i -> i.ftc_wcet);
    ilp_rta = rta_under (fun i -> i.ilp_wcet);
  }

let schedulable_under t which =
  let rtas =
    match which with
    | `Isolation -> t.isolation_rta
    | `Ftc -> t.ftc_rta
    | `Ilp -> t.ilp_rta
  in
  List.for_all (fun (_, r) -> r.Rta.schedulable) rtas

let pp fmt t =
  Format.fprintf fmt "@[<v>integration under %s:@," t.scenario.Scenario.name;
  Format.fprintf fmt "%-14s %4s %10s %12s %12s@," "task" "core" "isolation"
    "fTC wcet" "ILP wcet";
  List.iter
    (fun i ->
       Format.fprintf fmt "%-14s %4d %10d %12d %12d@," i.app.name i.app.core
         i.isolation_cycles i.ftc_wcet i.ilp_wcet)
    t.inflations;
  let verdict which label =
    Format.fprintf fmt "%-28s %s@," label
      (if schedulable_under t which then "schedulable" else "NOT schedulable")
  in
  verdict `Isolation "ignoring contention:";
  verdict `Ftc "with fTC inflation:";
  verdict `Ilp "with ILP-PTAC inflation:";
  Format.fprintf fmt "@]"
