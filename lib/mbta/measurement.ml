open Platform

type observation = {
  counters : Counters.t;
  cycles : int;
  ground_truth : Access_profile.t;
}

let of_result (r : Tcsim.Machine.run_result) =
  {
    counters = r.Tcsim.Machine.analysis.Tcsim.Machine.counters;
    cycles = r.Tcsim.Machine.cycles;
    ground_truth = r.Tcsim.Machine.analysis.Tcsim.Machine.profile;
  }

let isolation ?config ?(core = 0) program =
  Obs.Tracer.with_span "measure.isolation"
    ~attrs:(fun () ->
        [
          ("program", Tcsim.Program.name program);
          ("core", string_of_int core);
        ])
    (fun () -> of_result (Runtime.Run_cache.run_isolation ?config ~core program))

let isolation_sweep ?config ?(core = 0) programs =
  List.map (fun p -> isolation ?config ~core p) programs

let high_water_mark = function
  | [] -> invalid_arg "Measurement.high_water_mark: empty sweep"
  | first :: rest ->
    let max_counters (a : Counters.t) (b : Counters.t) =
      {
        Counters.ccnt = max a.Counters.ccnt b.Counters.ccnt;
        pmem_stall = max a.Counters.pmem_stall b.Counters.pmem_stall;
        dmem_stall = max a.Counters.dmem_stall b.Counters.dmem_stall;
        pcache_miss = max a.Counters.pcache_miss b.Counters.pcache_miss;
        dcache_miss_clean = max a.Counters.dcache_miss_clean b.Counters.dcache_miss_clean;
        dcache_miss_dirty = max a.Counters.dcache_miss_dirty b.Counters.dcache_miss_dirty;
      }
    in
    List.fold_left
      (fun acc o ->
         {
           counters = max_counters acc.counters o.counters;
           cycles = max acc.cycles o.cycles;
           ground_truth = Access_profile.map2 max acc.ground_truth o.ground_truth;
         })
      first rest

let corun ?config ~analysis ~contenders ?(restart_contenders = false) () =
  let program, core = analysis in
  Obs.Tracer.with_span "measure.corun"
    ~attrs:(fun () ->
        [
          ("program", Tcsim.Program.name program);
          ("contenders", string_of_int (List.length contenders));
        ])
    (fun () ->
       of_result
         (Runtime.Run_cache.run ?config ~restart_contenders
            ~analysis:{ Tcsim.Machine.program; core }
            ~contenders:
              (List.map
                 (fun (p, c) -> { Tcsim.Machine.program = p; core = c })
                 contenders)
            ()))
