open Platform

type config = { latency : Latency.t; cores : Core_model.config array }

let default_config =
  {
    latency = Latency.default;
    cores =
      [| Core_model.p16_config; Core_model.p16_config; Core_model.e16_config |];
  }

type task = { program : Program.t; core : int }

type core_result = {
  counters : Counters.t;
  profile : Access_profile.t;
  restarts : int;
}

type run_result = {
  cycles : int;
  analysis : core_result;
  contenders : (int * core_result) list;
  trace : Trace.t;
}

exception Cycle_limit_exceeded = Core_model.Cycle_limit_exceeded

type kernel = [ `Stepped | `Event ]

let kernel_of_string = function
  | "stepped" -> Some `Stepped
  | "event" -> Some `Event
  | _ -> None

let kernel_to_string = function `Stepped -> "stepped" | `Event -> "event"

(* Process-wide default, overridable per run. The event kernel is the
   production default; AURIX_KERNEL=stepped selects the per-cycle loop
   without touching call sites. *)
let default_kernel_ref =
  ref
    (match Option.bind (Sys.getenv_opt "AURIX_KERNEL") kernel_of_string with
     | Some k -> k
     | None -> `Event)

let default_kernel () = !default_kernel_ref
let set_default_kernel k = default_kernel_ref := k
let default_max_cycles = 200_000_000

let m_runs = Obs.Metrics.counter "tcsim.runs"
let m_cycles = Obs.Metrics.counter "tcsim.cycles"

(* --- the script memo --------------------------------------------------------
   Every run checks the compiled {!Core_model.Script}s it needs out of
   one process-wide memo keyed by ({!Program.digest}, core config), and
   returns them when it ends, however it ends. Check-out is exclusive: a
   script is single-threaded, so a concurrent run that wants one already
   out compiles its own. The lock covers table operations only; scripts
   compile while the run reads them, outside it. Results never depend on
   what the memo holds — scripts are timing-independent by construction
   — but hits do depend on scheduling, so the counters are timing-tier.

   Retained scripts are charged their {!Core_model.Script.footprint},
   capped at [script_memo_cap] segment slots in total; the least recently
   returned script goes first, and a script larger than the cap is not
   kept. *)

let m_memo_hits = Obs.Metrics.counter ~timing:true "tcsim.script_memo.hits"
let m_memo_misses = Obs.Metrics.counter ~timing:true "tcsim.script_memo.misses"
let m_memo_segments = Obs.Metrics.gauge ~timing:true "tcsim.script_memo.segments"

let script_memo_cap = 1 lsl 19

type memo_entry = { script : Core_model.Script.t; size : int; returned : int }

(* the table and both refs are guarded by [memo_lock] *)
let memo : (Digest.t * Core_model.config, memo_entry) Hashtbl.t =
  Hashtbl.create 64
let memo_lock = Mutex.create ()
let memo_segments = ref 0
let memo_clock = ref 0

let memo_drop key e =
  Hashtbl.remove memo key;
  memo_segments := !memo_segments - e.size

let check_out ((_, config) as key) program =
  let held =
    Mutex.protect memo_lock (fun () ->
        match Hashtbl.find_opt memo key with
        | Some e ->
          memo_drop key e;
          Some e.script
        | None -> None)
  in
  match held with
  | Some s ->
    Obs.Metrics.incr m_memo_hits;
    s
  | None ->
    Obs.Metrics.incr m_memo_misses;
    Core_model.Script.create config program

let give_back key script =
  let size = Core_model.Script.footprint script in
  if size <= script_memo_cap then
    Mutex.protect memo_lock (fun () ->
        (* a concurrent run's copy of the same script: the later wins *)
        Option.iter (memo_drop key) (Hashtbl.find_opt memo key);
        while !memo_segments + size > script_memo_cap do
          let oldest =
            Hashtbl.fold
              (fun k e acc ->
                 match acc with
                 | Some (_, o) when o.returned <= e.returned -> acc
                 | _ -> Some (k, e))
              memo None
          in
          Option.iter (fun (k, e) -> memo_drop k e) oldest
        done;
        incr memo_clock;
        Hashtbl.replace memo key { script; size; returned = !memo_clock };
        memo_segments := !memo_segments + size;
        Obs.Metrics.set m_memo_segments !memo_segments)

let clear_scripts () =
  Mutex.protect memo_lock (fun () ->
      Hashtbl.reset memo;
      memo_segments := 0;
      Obs.Metrics.set m_memo_segments 0)

let run ?(config = default_config) ?(max_cycles = default_max_cycles)
    ?(restart_contenders = true) ?priorities ?(trace = false) ?kernel
    ~analysis ?(contenders = []) () =
  Obs.Metrics.incr m_runs;
  let finish_cycle = ref 0 and work = [| 0; 0 |] in
  Obs.Tracer.with_span "tcsim.run"
    ~attrs:(fun () ->
        [
          ("cores", string_of_int (1 + List.length contenders));
          ("cycles", string_of_int !finish_cycle);
          ("events", string_of_int work.(0));
          ("skipped_events", string_of_int work.(1));
        ])
    (fun () ->
  let ncores = Array.length config.cores in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun t ->
       if t.core < 0 || t.core >= ncores then
         invalid_arg (Printf.sprintf "Machine.run: core %d out of range" t.core);
       if Hashtbl.mem seen t.core then
         invalid_arg (Printf.sprintf "Machine.run: core %d assigned twice" t.core);
       Hashtbl.add seen t.core ())
    (analysis :: contenders);
  Option.iter
    (fun p ->
       if Array.length p <> ncores then
         invalid_arg "Machine.run: priority array length mismatch")
    priorities;
  let sri = Core_model.create_sri ~latency:config.latency ~priorities ~trace ~ncores in
  (* the run's scripts, one per (program, core config): cores running
     the same program on the same config share one *)
  let held = Hashtbl.create 4 in
  let script_for core_config program =
    let key = (Program.digest program, core_config) in
    match Hashtbl.find_opt held key with
    | Some s -> s
    | None ->
      let s = check_out key program in
      Hashtbl.add held key s;
      s
  in
  Fun.protect ~finally:(fun () -> Hashtbl.iter give_back held) @@ fun () ->
  let make_core role t =
    Core_model.create
      (script_for config.cores.(t.core) t.program)
      ~sri ~core_id:t.core role
  in
  let analysis_core = make_core Core_model.Analysis analysis in
  let contender_cores =
    Array.of_list
      (List.map
         (make_core
            (if restart_contenders then Core_model.Restarting else Core_model.Once))
         contenders)
  in
  Core_model.run_kernel
    ~stepped:((match kernel with Some k -> k | None -> default_kernel ()) = `Stepped)
    ~skip:(not trace) ~max_cycles ~sri ~analysis:analysis_core ~contenders:contender_cores
    ~work;
  let result_of core =
    {
      counters = Core_model.counters core;
      profile = Core_model.profile sri ~core:(Core_model.core_id core);
      restarts = Core_model.restarts core;
    }
  in
  let result =
    {
      cycles = Core_model.finish_cycle analysis_core;
      analysis = result_of analysis_core;
      contenders =
        Array.to_list
          (Array.map (fun c -> (Core_model.core_id c, result_of c)) contender_cores);
      trace = Core_model.sri_trace sri;
    }
  in
  finish_cycle := result.cycles;
  Obs.Metrics.add m_cycles result.cycles;
  result)

let run_isolation ?config ?max_cycles ?kernel ?(core = 0) program =
  run ?config ?max_cycles ?kernel ~analysis:{ program; core } ()
