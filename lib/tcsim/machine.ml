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

exception Cycle_limit_exceeded of int

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
let m_events = Obs.Metrics.counter "tcsim.events"
let m_skipped = Obs.Metrics.counter "tcsim.skipped_cycles"

(* events applied as whole periods; whether a region is known when the
   core reaches it depends on what the script memo held *)
let m_solo_skipped = Obs.Metrics.counter ~timing:true "tcsim.solo.skipped_events"

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

let imin (a : int) b = if a <= b then a else b

(* The kernel: wake at the earliest of the cores' next events (issues,
   the analysis task's end) and the SRI's next queued grant, and replay
   that cycle in the fixed order grants, analysis core, contenders in
   list order — the order the hardware model resolves same-cycle
   arbitration in. [`Stepped] visits every cycle instead; nothing
   happens at the others. Once nothing is queued and no contender will
   issue again, the event kernel steps the analysis core alone (see
   below). See DESIGN.md §7 for why this is exact. *)
let run_kernel ~stepped ~skip ~max_cycles ~sri ~analysis ~contenders ~work =
  let events = ref 0 and last = ref (-1) and solo_skipped = ref 0 in
  Fun.protect
    ~finally:(fun () ->
        Sri.flush_metrics sri;
        Obs.Metrics.add m_events !events;
        Obs.Metrics.add m_skipped (!last + 1 - !events);
        Obs.Metrics.add m_solo_skipped !solo_skipped;
        work.(0) <- !events;
        work.(1) <- !solo_skipped)
    (fun () ->
       let n = Array.length contenders in
       let alone = ref false in
       while not (!alone || Core_model.finished analysis) do
         (* the earliest event of anyone but the analysis core; a loop,
            not a closure: this runs at every event *)
         let others =
           if stepped then 0
           else begin
             let t = ref (Sri.next_grant_at sri) in
             for i = 0 to n - 1 do
               t := imin !t (Core_model.wake contenders.(i))
             done;
             !t
           end
         in
         if others = max_int then alone := true
         else begin
           let t = if stepped then !last + 1 else imin (Core_model.wake analysis) others in
           if t > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
           incr events;
           last := t;
           Sri.step sri ~cycle:t;
           if Core_model.wake analysis = t then Core_model.fire analysis ~cycle:t;
           for i = 0 to n - 1 do
             let c = contenders.(i) in
             if Core_model.wake c = t then Core_model.fire c ~cycle:t
           done
         end
       done;
       (* Alone on the crossbar: every event is the analysis core's — an
          issue, granted at once or, behind a contender's last
          transaction still in service, at a later cycle that is an
          event of its own — or its end. Untraced, whole periods of a
          replayed region are skipped at once (DESIGN.md §7). *)
       let solo = if skip then Some (Core_model.Solo.create analysis) else None in
       while not (Core_model.finished analysis) do
         let t = Core_model.wake analysis in
         let t =
           match solo with
           | Some k when Core_model.Solo.due k ->
             let m = Core_model.Solo.check k ~events:!events ~limit:max_cycles in
             if m = 0 then t
             else begin
               let e = m * Core_model.Solo.period_events k in
               events := !events + e;
               solo_skipped := !solo_skipped + e;
               last := !last + (m * Core_model.Solo.period_cycles k);
               Core_model.wake analysis
             end
           | _ -> t
         in
         if t > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
         incr events;
         last := t;
         let g = Core_model.fire_alone analysis ~cycle:t ~limit:max_cycles in
         if g > t then begin
           if g > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
           incr events;
           last := g
         end
       done;
       let finish = Core_model.finish_cycle analysis in
       Array.iter (fun c -> Core_model.settle c ~cycle:finish) contenders)

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
  let sri = Sri.create ~latency:config.latency ?priorities ~trace ~ncores () in
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
  run_kernel
    ~stepped:((match kernel with Some k -> k | None -> default_kernel ()) = `Stepped)
    ~skip:(not trace) ~max_cycles ~sri ~analysis:analysis_core ~contenders:contender_cores
    ~work;
  let result_of core =
    {
      counters = Core_model.counters core;
      profile = Sri.profile sri ~core:(Core_model.core_id core);
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
      trace = Sri.trace sri;
    }
  in
  finish_cycle := result.cycles;
  Obs.Metrics.add m_cycles result.cycles;
  result)

let run_isolation ?config ?max_cycles ?kernel ?(core = 0) program =
  run ?config ?max_cycles ?kernel ~analysis:{ program; core } ()
