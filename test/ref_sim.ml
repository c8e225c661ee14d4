(* A reference model of the TC27x simulator: the per-instruction
   interpreter the transaction-granular kernel in [Tcsim] replaced,
   kept as an independent oracle. Every core is a phase machine stepped
   once per cycle and the crossbar arbitrates boxed tickets in a FIFO;
   nothing here shares code with [Tcsim.Core_model], [Tcsim.Sri] or
   [Tcsim.Machine]'s kernel beyond the caches, the memory map and the
   program walker, so a script-compilation or SRI-state bug in the
   kernel cannot hide behind a shared core model. The metrics it
   records (per-target SRI totals, tcsim.cycles, tcsim.runs) use the
   kernel's names, so the deterministic snapshots compare directly. *)

open Platform
open Tcsim

module Sri = struct
  type ticket = {
    mutable done_at : int;
    mutable granted : bool;
    issued_at : int;
    target : Target.t;
    op : Op.t;
  }

  type pending = { p_core : int; p_line : int; p_folded : bool; p_ticket : ticket }

  (* Insertion-ordered pending queue. A growable ring buffer instead of a
     list: [push] is amortised O(1) (the old [queue @ [p]] copied the whole
     queue per request) and [remove] compacts leftwards so the surviving
     elements keep their arrival order — the property the round-robin
     arbiter's class scan relies on. Capacity is bounded in practice by the
     master count (each master has at most one outstanding transaction). *)
  module Fifo = struct
    type 'a t = { mutable buf : 'a option array; mutable head : int; mutable len : int }

    let create () = { buf = Array.make 8 None; head = 0; len = 0 }
    let is_empty q = q.len = 0

    let push q x =
      let cap = Array.length q.buf in
      if q.len = cap then begin
        let buf = Array.make (2 * cap) None in
        for i = 0 to q.len - 1 do
          buf.(i) <- q.buf.((q.head + i) mod cap)
        done;
        q.buf <- buf;
        q.head <- 0
      end;
      q.buf.((q.head + q.len) mod Array.length q.buf) <- Some x;
      q.len <- q.len + 1

    (* Left-to-right = arrival order, like the list it replaces. *)
    let fold f acc q =
      let cap = Array.length q.buf in
      let acc = ref acc in
      for i = 0 to q.len - 1 do
        match q.buf.((q.head + i) mod cap) with
        | Some x -> acc := f !acc x
        | None -> assert false
      done;
      !acc

    (* Removes the element physically equal to [x]; later arrivals shift
       left one slot, preserving relative order. *)
    let remove q x =
      let cap = Array.length q.buf in
      let kept = ref 0 in
      let found = ref false in
      for i = 0 to q.len - 1 do
        let slot = (q.head + i) mod cap in
        match q.buf.(slot) with
        | Some y when y == x ->
          q.buf.(slot) <- None;
          found := true
        | Some y ->
          q.buf.(slot) <- None;
          q.buf.((q.head + !kept) mod cap) <- Some y;
          incr kept
        | None -> assert false
      done;
      if not !found then invalid_arg "Sri: removing a transaction that is not queued";
      q.len <- !kept
  end

  type iface = {
    target : Target.t;
    mutable busy_until : int;
    mutable last_line : int; (* line-aligned addr of the last served transaction *)
    mutable has_line : bool;
    mutable last_served_core : int;
    queue : pending Fifo.t; (* insertion order *)
  }

  type t = {
    latency : Latency.t;
    ncores : int;
    priorities : int array;
    ifaces : iface array;
    profiles : Access_profile.t array;
    tracing : bool;
    mutable events : Trace.event list; (* newest first *)
  }

  let iface_index = function
    | Target.Dfl -> 0
    | Target.Pf0 -> 1
    | Target.Pf1 -> 2
    | Target.Lmu -> 3

  (* Per-target service/wait cycle totals, indexed like [ifaces] (both
     arrays are built over [Target.all] in [iface_index] order). Values
     are simulated cycles, so the totals are exactly reproducible and
     jobs-invariant — the software analogue of the DSU's per-slave
     occupancy counters. *)
  let target_tag = function
    | Target.Dfl -> "dfl"
    | Target.Pf0 -> "pf0"
    | Target.Pf1 -> "pf1"
    | Target.Lmu -> "lmu"

  let m_busy, m_wait, m_grants =
    let mk f = Array.of_list (List.map f Target.all) in
    ( mk (fun t ->
          Obs.Metrics.gauge (Printf.sprintf "sri.%s.busy_cycles" (target_tag t))),
      mk (fun t ->
          Obs.Metrics.gauge (Printf.sprintf "sri.%s.wait_cycles" (target_tag t))),
      mk (fun t ->
          Obs.Metrics.counter (Printf.sprintf "sri.%s.grants" (target_tag t))) )

  let create ?(latency = Latency.default) ?priorities ?(trace = false) ~ncores () =
    let priorities =
      match priorities with
      | None -> Array.make ncores 0
      | Some p ->
        if Array.length p <> ncores then
          invalid_arg "Sri.create: priority array length mismatch";
        Array.copy p
    in
    {
      latency;
      ncores;
      priorities;
      ifaces =
        Array.of_list
          (List.map
             (fun target ->
                {
                  target;
                  busy_until = 0;
                  last_line = 0;
                  has_line = false;
                  last_served_core = ncores - 1;
                  queue = Fifo.create ();
                })
             Target.all);
      profiles = Array.make ncores Access_profile.zero;
      tracing = trace;
      events = [];
    }

  (* Streaming (line-buffer) hits only exist on the flash interfaces; the
     LMU SRAM has lmin = lmax anyway. The 256-bit buffer serves repeats of
     the current line and — thanks to next-line prefetch — the immediately
     following line of a sequential stream. *)
  let service_time t iface ~op ~line ~folded =
    if folded && Target.equal iface.target Target.Lmu then
      Latency.lmu_dirty_lmax t.latency
    else if
      Target.is_flash iface.target && iface.has_line
      && (iface.last_line = line || iface.last_line + Memory_map.line_bytes = line)
    then Latency.lmin t.latency iface.target op
    else Latency.lmax t.latency iface.target op

  (* Arbitration: most urgent priority class first (lower value wins), then
     round-robin within the class — smallest positive distance from the last
     served master. *)
  let rr_pick t iface =
    if Fifo.is_empty iface.queue then None
    else begin
      let best_class =
        Fifo.fold (fun acc p -> min acc t.priorities.(p.p_core)) max_int iface.queue
      in
      let dist core =
        let d = (core - iface.last_served_core + t.ncores) mod t.ncores in
        if d = 0 then t.ncores else d
      in
      Fifo.fold
        (fun acc p ->
           if t.priorities.(p.p_core) <> best_class then acc
           else
             match acc with
             | None -> Some p
             | Some b -> if dist p.p_core < dist b.p_core then Some p else acc)
        None iface.queue
    end

  let grant t iface cycle p =
    let svc = service_time t iface ~op:p.p_ticket.op ~line:p.p_line ~folded:p.p_folded in
    p.p_ticket.granted <- true;
    p.p_ticket.done_at <- cycle + svc;
    iface.busy_until <- cycle + svc;
    iface.last_line <- p.p_line;
    iface.has_line <- true;
    iface.last_served_core <- p.p_core;
    Fifo.remove iface.queue p;
    t.profiles.(p.p_core) <-
      Access_profile.incr t.profiles.(p.p_core) iface.target p.p_ticket.op;
    let idx = iface_index iface.target in
    Obs.Metrics.gauge_add m_busy.(idx) svc;
    Obs.Metrics.gauge_add m_wait.(idx) (cycle - p.p_ticket.issued_at);
    Obs.Metrics.incr m_grants.(idx);
    if t.tracing then
      t.events <-
        {
          Trace.issue_cycle = p.p_ticket.issued_at;
          grant_cycle = cycle;
          complete_cycle = cycle + svc;
          core = p.p_core;
          target = iface.target;
          op = p.p_ticket.op;
          service = svc;
          waited = cycle - p.p_ticket.issued_at;
        }
        :: t.events

  let try_grant t iface ~cycle =
    if iface.busy_until <= cycle then
      match rr_pick t iface with None -> () | Some p -> grant t iface cycle p

  let request t ~core ~target ~op ~addr ~folded_dirty_writeback ~cycle =
    if not (Op.valid target op) then
      invalid_arg
        (Printf.sprintf "Core_model: inadmissible (%s, %s)"
           (Target.to_string target) (Op.to_string op));
    if core < 0 || core >= t.ncores then invalid_arg "Sri.request: bad core id";
    let ticket = { done_at = max_int; granted = false; issued_at = cycle; target; op } in
    let p =
      {
        p_core = core;
        p_line = Memory_map.line_of addr;
        p_folded = folded_dirty_writeback;
        p_ticket = ticket;
      }
    in
    let iface = t.ifaces.(iface_index target) in
    Fifo.push iface.queue p;
    try_grant t iface ~cycle;
    ticket

  let step t ~cycle = Array.iter (fun iface -> try_grant t iface ~cycle) t.ifaces

  let profile t ~core = t.profiles.(core)
  let latency_table t = t.latency
  let trace t = List.rev t.events

  (* Cycles at which still-queued requests were issued: transactions the
     run ended before granting, which the trace does not show. *)
  let pending_issues t =
    Array.fold_left
      (fun acc iface ->
         Fifo.fold (fun acc p -> p.p_ticket.issued_at :: acc) acc iface.queue)
      [] t.ifaces
end

module Core_model = struct
  type config = Core_model.config = {
    kind : Core_model.kind;
    icache : Cache.geometry option;
    dcache : Cache.geometry option;
  }

  module Script = struct
    type fetch =
      | Fdirect  (* pc in scratchpad: no fetch transaction *)
      | Fhit
      | Fmiss of { target : Target.t; pc : int }  (* counts PCACHE_MISS *)
      | Funcached of { target : Target.t; pc : int }

    type exec =
      | Ecompute of int
      | Elocal  (* scratchpad data access *)
      | Ehit
      | Emiss_clean of { target : Target.t; addr : int }
      | Emiss_folded of { addr : int }  (* dirty LMU victim folded into the fill *)
      | Emiss_wb of { vtarget : Target.t; vaddr : int; target : Target.t; addr : int }
      | Euncached of { target : Target.t; addr : int }

    type entry = Instr of { fetch : fetch; exec : exec } | End_of_pass

    (* The generator owns private caches and a walker; calling it advances
       them by one instruction. [End_of_pass] rewinds the walker (caches
       stay warm — restart semantics), so the stream is infinite for
       looping co-runners and each pass reflects the cache state its
       predecessors left behind. *)
    let generator config program =
      let dcache = match config.kind with Core_model.P16 -> config.dcache | Core_model.E16 -> None in
      let icache = Option.map Cache.create config.icache in
      let dcache = Option.map Cache.create dcache in
      let walker = Program.Walker.create program in
      let fetch_of (instr : Program.instr) =
        match Memory_map.classify instr.Program.pc with
        | Memory_map.Pspr | Memory_map.Dspr -> Fdirect
        | Memory_map.Sri (target, cacheable) ->
          (match (cacheable, icache) with
           | true, Some ic ->
             (match Cache.access ic ~addr:instr.Program.pc ~write:false with
              | Cache.Hit -> Fhit
              (* I-cache lines are never dirty: victims drop silently. *)
              | Cache.Miss _ -> Fmiss { target; pc = instr.Program.pc })
           | (false, _ | true, None) -> Funcached { target; pc = instr.Program.pc })
      in
      let exec_of (instr : Program.instr) =
        match instr.Program.kind with
        | Program.Compute n -> Ecompute n
        | Program.Load addr | Program.Store addr ->
          let write =
            match instr.Program.kind with Program.Store _ -> true | _ -> false
          in
          (match Memory_map.classify addr with
           | Memory_map.Dspr | Memory_map.Pspr -> Elocal
           | Memory_map.Sri (target, cacheable) ->
             if
               write
               && (Target.equal target Target.Pf0 || Target.equal target Target.Pf1)
             then
               invalid_arg
                 (Printf.sprintf "Core_model: store to program flash at 0x%x" addr);
             (match (cacheable, dcache) with
              | true, Some dc ->
                (match Cache.access dc ~addr ~write with
                 | Cache.Hit -> Ehit
                 | Cache.Miss { victim = None } -> Emiss_clean { target; addr }
                 | Cache.Miss { victim = Some vaddr } ->
                   let vtarget =
                     match Memory_map.classify vaddr with
                     | Memory_map.Sri (vt, _) -> vt
                     | Memory_map.Dspr | Memory_map.Pspr ->
                       (* dirty lines only ever hold SRI-cacheable data *)
                       assert false
                   in
                   if
                     Target.equal vtarget Target.Lmu && Target.equal target Target.Lmu
                   then Emiss_folded { addr }
                   else Emiss_wb { vtarget; vaddr; target; addr })
              | (false, _ | true, None) -> Euncached { target; addr }))
      in
      fun () ->
        match Program.Walker.next walker with
        | None ->
          Program.Walker.reset walker;
          End_of_pass
        | Some instr -> Instr { fetch = fetch_of instr; exec = exec_of instr }

  end

  type phase =
    | Start
    | Busy of int (* remaining cycles after the current one *)
    | Wait_fetch of Sri.ticket * Script.exec (* fetch resolved -> apply exec *)
    | Wait_writeback of Sri.ticket * (Target.t * int * bool) (* pending fill *)
    | Wait_data of Sri.ticket
    | Done

  type t = {
    core_id : int;
    sri : Sri.t;
    next : unit -> Script.entry; (* the live generator *)
    mutable phase : phase;
    mutable ccnt : int;
    mutable pmem_stall : int;
    mutable dmem_stall : int;
    mutable pcache_miss : int;
    mutable dcache_miss_clean : int;
    mutable dcache_miss_dirty : int;
    mutable finish_at : int;
    mutable restart_count : int;
  }

  let create config ~sri ~core_id program =
    {
      core_id;
      sri;
      next = Script.generator config program;
      phase = Start;
      ccnt = 0;
      pmem_stall = 0;
      dmem_stall = 0;
      pcache_miss = 0;
      dcache_miss_clean = 0;
      dcache_miss_dirty = 0;
      finish_at = -1;
      restart_count = 0;
    }

  (* Observed wait -> stall cycles: hide the pipelining/prefetch overlap the
     calibration constants encode (see module doc). *)
  let stall_of t (ticket : Sri.ticket) =
    let lat = Sri.latency_table t.sri in
    let hide =
      Latency.lmin lat ticket.Sri.target ticket.Sri.op
      - Latency.min_stall lat ticket.Sri.target ticket.Sri.op
    in
    max 0 (ticket.Sri.done_at - ticket.Sri.issued_at - hide)

  let issue t ~target ~op ~addr ~folded ~cycle =
    Sri.request t.sri ~core:t.core_id ~target ~op ~addr
      ~folded_dirty_writeback:folded ~cycle

  (* Execute phase of a scripted instruction whose fetch has resolved;
     consumes the current cycle. *)
  let apply_exec t (e : Script.exec) ~cycle =
    match e with
    | Script.Ecompute n -> t.phase <- (if n <= 1 then Start else Busy (n - 1))
    | Script.Elocal | Script.Ehit -> t.phase <- Start
    | Script.Emiss_clean { target; addr } ->
      t.dcache_miss_clean <- t.dcache_miss_clean + 1;
      let tk = issue t ~target ~op:Op.Data ~addr ~folded:false ~cycle in
      t.phase <- Wait_data tk
    | Script.Euncached { target; addr } ->
      let tk = issue t ~target ~op:Op.Data ~addr ~folded:false ~cycle in
      t.phase <- Wait_data tk
    | Script.Emiss_folded { addr } ->
      (* folded write-back: single long LMU transaction *)
      t.dcache_miss_dirty <- t.dcache_miss_dirty + 1;
      let tk = issue t ~target:Target.Lmu ~op:Op.Data ~addr ~folded:true ~cycle in
      t.phase <- Wait_data tk
    | Script.Emiss_wb { vtarget; vaddr; target; addr } ->
      t.dcache_miss_dirty <- t.dcache_miss_dirty + 1;
      let wb = issue t ~target:vtarget ~op:Op.Data ~addr:vaddr ~folded:false ~cycle in
      t.phase <- Wait_writeback (wb, (target, addr, false))

  (* Fetch + begin an instruction; consumes the current cycle on the fetch
     hit path (as the first execute cycle). *)
  let begin_instruction t ~cycle =
    match t.next () with
    | Script.End_of_pass ->
      t.phase <- Done;
      t.finish_at <- cycle;
      t.ccnt <- t.ccnt - 1 (* the cycle just counted was not used *)
    | Script.Instr { fetch; exec } ->
      (match fetch with
       | Script.Fdirect | Script.Fhit -> apply_exec t exec ~cycle
       | Script.Fmiss { target; pc } ->
         t.pcache_miss <- t.pcache_miss + 1;
         let tk = issue t ~target ~op:Op.Code ~addr:pc ~folded:false ~cycle in
         t.phase <- Wait_fetch (tk, exec)
       | Script.Funcached { target; pc } ->
         let tk = issue t ~target ~op:Op.Code ~addr:pc ~folded:false ~cycle in
         t.phase <- Wait_fetch (tk, exec))

  let step t ~cycle =
    match t.phase with
    | Done -> ()
    | _ ->
      t.ccnt <- t.ccnt + 1;
      (match t.phase with
       | Done -> ()
       | Start -> begin_instruction t ~cycle
       | Busy n -> t.phase <- (if n <= 1 then Start else Busy (n - 1))
       | Wait_fetch (tk, exec) ->
         if tk.Sri.granted && tk.Sri.done_at <= cycle then begin
           t.pmem_stall <- t.pmem_stall + stall_of t tk;
           apply_exec t exec ~cycle
         end
       | Wait_writeback (tk, (target, addr, folded)) ->
         if tk.Sri.granted && tk.Sri.done_at <= cycle then begin
           t.dmem_stall <- t.dmem_stall + stall_of t tk;
           let fill = issue t ~target ~op:Op.Data ~addr ~folded ~cycle in
           t.phase <- Wait_data fill
         end
       | Wait_data tk ->
         if tk.Sri.granted && tk.Sri.done_at <= cycle then begin
           t.dmem_stall <- t.dmem_stall + stall_of t tk;
           t.phase <- Start
         end)

  let finished t = match t.phase with Done -> true | _ -> false

  let finish_cycle t =
    if t.finish_at < 0 then failwith "Core_model.finish_cycle: not finished";
    t.finish_at

  let counters t =
    {
      Counters.ccnt = t.ccnt;
      pmem_stall = t.pmem_stall;
      dmem_stall = t.dmem_stall;
      pcache_miss = t.pcache_miss;
      dcache_miss_clean = t.dcache_miss_clean;
      dcache_miss_dirty = t.dcache_miss_dirty;
    }

  (* The generator rewinds its walker when it emits [End_of_pass], so
     restarting is pure phase bookkeeping. *)
  let restart t =
    (match t.phase with
     | Done -> ()
     | _ -> invalid_arg "Core_model.restart: program still running");
    t.phase <- Start;
    t.finish_at <- -1;
    t.restart_count <- t.restart_count + 1

  let restarts t = t.restart_count
  let core_id t = t.core_id
end

(* The seed's loop: every core and the crossbar stepped at every cycle. *)
let run_stepped ~max_cycles ~restart_contenders ~sri ~analysis_core
    ~contender_cores =
  let cycle = ref 0 in
  while not (Core_model.finished analysis_core) do
    if !cycle > max_cycles then raise (Machine.Cycle_limit_exceeded !cycle);
    Sri.step sri ~cycle:!cycle;
    Core_model.step analysis_core ~cycle:!cycle;
    List.iter
      (fun (_, c) ->
         Core_model.step c ~cycle:!cycle;
         if Core_model.finished c && restart_contenders then Core_model.restart c)
      contender_cores;
    incr cycle
  done

let m_runs = Obs.Metrics.counter "tcsim.runs"
let m_cycles = Obs.Metrics.counter "tcsim.cycles"

(* [Machine.run]'s contract on the reference model. [pending] receives
   the issue cycles of the requests still queued when the run ended. *)
let run ?(config = Machine.default_config)
    ?(max_cycles = Machine.default_max_cycles) ?(restart_contenders = true)
    ?priorities ?(trace = false) ?(pending = ref []) ~analysis
    ?(contenders = []) () =
  Obs.Metrics.incr m_runs;
  let ncores = Array.length config.Machine.cores in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (t : Machine.task) ->
       if t.core < 0 || t.core >= ncores then
         invalid_arg (Printf.sprintf "Machine.run: core %d out of range" t.core);
       if Hashtbl.mem seen t.core then
         invalid_arg (Printf.sprintf "Machine.run: core %d assigned twice" t.core);
       Hashtbl.add seen t.core ())
    (analysis :: contenders);
  let sri =
    Sri.create ~latency:config.Machine.latency ?priorities ~trace ~ncores ()
  in
  let make_core (t : Machine.task) =
    Core_model.create config.Machine.cores.(t.core) ~sri ~core_id:t.core
      t.program
  in
  let analysis_core = make_core analysis in
  let contender_cores =
    List.map (fun (t : Machine.task) -> (t.core, make_core t)) contenders
  in
  run_stepped ~max_cycles ~restart_contenders ~sri ~analysis_core
    ~contender_cores;
  pending := Sri.pending_issues sri;
  let result_of core =
    {
      Machine.counters = Core_model.counters core;
      profile = Sri.profile sri ~core:(Core_model.core_id core);
      restarts = Core_model.restarts core;
    }
  in
  let cycles = Core_model.finish_cycle analysis_core in
  Obs.Metrics.add m_cycles cycles;
  {
    Machine.cycles;
    analysis = result_of analysis_core;
    contenders = List.map (fun (id, c) -> (id, result_of c)) contender_cores;
    trace = Sri.trace sri;
  }
