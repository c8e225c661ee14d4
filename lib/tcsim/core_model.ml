open Platform

(* The per-event path lives in this one compilation unit: the crossbar,
   the cores and the kernel loop. Dune's default profile compiles every
   module with [-opaque], so a call into another module is an unknown
   call through [caml_applyN] that nothing inlines; within one unit the
   calls are direct. Stdlib's [min]/[max] are polymorphic and compare
   through [caml_greaterequal]; everything here compares ints. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

type kind = P16 | E16

type config = {
  kind : kind;
  icache : Cache.geometry option;
  dcache : Cache.geometry option;
}

let p16_config =
  { kind = P16; icache = Some Cache.tc16p_icache; dcache = Some Cache.tc16p_dcache }

let e16_config = { kind = E16; icache = Some Cache.tc16e_icache; dcache = None }

(* --- Compiled scripts ----------------------------------------------------
   Everything a core does besides waiting is timing-independent: which
   instruction comes next, how its fetch and data access classify, and
   whether each cache access hits — all of it is a function of the
   (program, core config) pair alone, because the per-core caches see a
   fixed access sequence whatever the SRI timing is. A script compiles
   that stream into segments, each a silent run followed by what ends
   it: an SRI transaction, the end of a pass, or the instruction that
   raises.

   A segment is two words in fixed-size int chunks (never scanned by
   the GC, never copied on growth):
     w0 = gap lsl 5 lor miss lsl 3 lor tag
     w1 = line lsl 2 lor target          (transactions only)
   [gap] counts cycles from the segment's anchor — the completion cycle
   of the previous transaction, the previous pass end, or -1 at the
   start — to the cycle the segment's event happens. [miss] names the
   counter the issue bumps. A pass without transactions ends in a
   [silent_end]: caches only change on misses, so every later pass
   repeats it exactly and the script is complete.

   Loop replay: at a loop boundary — the start of a new iteration of a
   loop instance — once at least as many instructions as the caches
   have lines have run since the instance began or since its last
   snapshot, the compiler snapshots its state: the canonical cache
   contents ({!Cache.snapshot}) and [acc]. If the state equals the
   instance's last snapshot and segments were emitted in between, the
   [k] iterations since then left the state where they found it, so
   every later block of [k] iterations emits those segments again: the
   walker skips the whole blocks and the script records the region,
   while the caches stay as they are; the fewer than [k] iterations
   left over compile as usual. A replayed segment is never stored:
   segment indices stay what they would be with every segment written
   out, and a read maps its index to the slot of the stored segment it
   repeats. *)
module Script = struct
  let tag_code = 0
  let tag_data = 1
  let tag_folded = 2 (* LMU fill carrying its dirty victim's write-back *)
  let tag_pass_end = 3
  let tag_silent_end = 4
  let tag_fail = 5
  let miss_pcache = 1
  let miss_dclean = 2
  let miss_ddirty = 3
  let seg_bits = 10

  (* Per frame depth: the state at loop instance [id]'s latest snapshot,
     with [len] and the iterations left then; and the walker count at
     which instance [seen]'s next snapshot falls due. *)
  type snap = {
    mutable state : int array;
    mutable id : int;
    mutable at : int;
    mutable left : int;
    mutable seen : int;
    mutable due : int;
  }

  type t = {
    mutable chunks : int array array;
    mutable len : int;  (* segments compiled, replayed ones included *)
    mutable stored : int;  (* segments emitted: the slots in [chunks] *)
    mutable complete : bool;  (* a silent end or a failure was compiled *)
    mutable failed : exn option;  (* what the failure segment raises *)
    icache : Cache.t option;
    dcache : Cache.t option;
    walker : Program.Walker.t;
    mutable acc : int;  (* cycles from the anchor to the next instruction *)
    mutable pass_txns : int;
    (* the current instruction's data side, once classified *)
    mutable x_kind : int;  (* 0 silent, else the transaction's tag *)
    mutable x_miss : int;  (* the miss counter; its cycles when silent *)
    mutable x_target : int;
    mutable x_addr : int;
    mutable x_victim : int;  (* a dirty victim's address, or -1 *)
    (* loop replay *)
    lines : int;  (* cache lines: the instructions that pay for a snapshot *)
    mutable scratch : int array;  (* the state at this boundary *)
    mutable snaps : snap array;  (* per frame depth *)
    mutable regions : int array;  (* (first, period, stop, slot of stop) per replay *)
    mutable nregions : int;
  }

  (* A reader's window: segments [lo, hi) are stored at slots [+ delta]. *)
  type window = { mutable lo : int; mutable hi : int; mutable delta : int }

  let window () = { lo = 0; hi = 0; delta = 0 }

  let m_replayed = Obs.Metrics.counter ~timing:true "tcsim.script.replayed_segments"

  let cache_lines = function Some c -> Cache.lines c | None -> 0

  let create (config : config) program =
    let icache = Option.map Cache.create config.icache in
    let dcache =
      Option.map Cache.create
        (match config.kind with P16 -> config.dcache | E16 -> None)
    in
    let lines = cache_lines icache + cache_lines dcache in
    {
      chunks = [||];
      len = 0;
      stored = 0;
      complete = false;
      failed = None;
      icache;
      dcache;
      walker = Program.Walker.create program;
      acc = 1;
      pass_txns = 0;
      x_kind = 0;
      x_miss = 0;
      x_target = 0;
      x_addr = 0;
      x_victim = -1;
      lines;
      scratch = [||];
      snaps = [||];
      regions = [||];
      nregions = 0;
    }

  let no_chunk = [||]

  (* Stores a segment in slot [t.stored]. Its chunk is allocated on
     first use; the chunk table doubles, so growing a long script stays
     linear. *)
  let emit t w0 w1 =
    let ci = t.stored lsr seg_bits in
    if ci = Array.length t.chunks then
      t.chunks <- Array.append t.chunks (Array.make (max 1 ci) no_chunk);
    if t.chunks.(ci) == no_chunk then t.chunks.(ci) <- Array.make (2 lsl seg_bits) 0;
    let o = (t.stored land ((1 lsl seg_bits) - 1)) lsl 1 in
    t.chunks.(ci).(o) <- w0;
    t.chunks.(ci).(o + 1) <- w1;
    t.stored <- t.stored + 1;
    t.len <- t.len + 1

  (* A transaction issued [t.acc] cycles after the anchor; its completion
     becomes the next anchor, and the core resumes one cycle later. *)
  let txn t ~tag ~miss ~target ~addr =
    emit t
      ((t.acc lsl 5) lor (miss lsl 3) lor tag)
      ((Memory_map.line_of addr lsl 2) lor target);
    t.pass_txns <- t.pass_txns + 1;
    t.acc <- 1

  let target_of code = (code - 2) lsr 1
  let lmu = 3

  let region addr =
    let c = Memory_map.region_code addr in
    if c < 0 then Memory_map.unmapped addr else c

  (* Classifies the data side of [i] into the [x_*] fields. *)
  let classify_exec t (i : Program.instr) =
    t.x_kind <- 0;
    match i.Program.kind with
    | Program.Compute n -> t.x_miss <- n
    | Program.Load addr | Program.Store addr -> (
      let write = match i.Program.kind with Program.Store _ -> true | _ -> false in
      let c = region addr in
      t.x_miss <- 1;
      if c >= 2 then begin
        let target = target_of c in
        if write && (target = 1 || target = 2) then
          invalid_arg
            (Printf.sprintf "Core_model: store to program flash at 0x%x" addr);
        t.x_kind <- tag_data;
        t.x_miss <- 0;
        t.x_target <- target;
        t.x_addr <- addr;
        t.x_victim <- -1;
        match t.dcache with
        | Some dc when c land 1 = 1 ->
          let v = Cache.access_code dc ~addr ~write in
          if v = Cache.hit then begin
            t.x_kind <- 0;
            t.x_miss <- 1
          end
          else if v = Cache.clean_miss then t.x_miss <- miss_dclean
          else begin
            (* dirty lines only ever hold SRI-cacheable data *)
            t.x_miss <- miss_ddirty;
            if target = lmu && target_of (region v) = lmu then
              t.x_kind <- tag_folded
            else t.x_victim <- v
          end
        | _ -> ()
      end)

  (* Compiles one instruction. Both sides classify before anything is
     emitted: a raising instruction raises as a whole, when it would
     begin. *)
  let compile_instr t (i : Program.instr) =
    let pc = i.Program.pc in
    let c = region pc in
    let fetch =
      (* -1: no transaction; else target lsl 1 lor (1 on an I$ miss) *)
      if c < 2 then -1
      else
        match t.icache with
        | Some ic when c land 1 = 1 ->
          if Cache.access_code ic ~addr:pc ~write:false = Cache.hit then -1
          else (target_of c lsl 1) lor 1
        | _ -> target_of c lsl 1
    in
    classify_exec t i;
    if fetch >= 0 then begin
      if fetch lsr 1 = 0 then
        invalid_arg
          (Printf.sprintf "Core_model: inadmissible (%s, %s)"
             (Target.to_string Target.Dfl) (Op.to_string Op.Code));
      txn t ~tag:tag_code
        ~miss:(if fetch land 1 = 1 then miss_pcache else 0)
        ~target:(fetch lsr 1) ~addr:pc;
      (* the data side starts when the fetch completes *)
      t.acc <- 0
    end;
    if t.x_kind = 0 then t.acc <- t.acc + t.x_miss
    else if t.x_victim >= 0 then begin
      (* write-back first, then the fill as soon as it completes *)
      txn t ~tag:tag_data ~miss:miss_ddirty
        ~target:(target_of (region t.x_victim)) ~addr:t.x_victim;
      t.acc <- 0;
      txn t ~tag:tag_data ~miss:0 ~target:t.x_target ~addr:t.x_addr
    end
    else txn t ~tag:t.x_kind ~miss:t.x_miss ~target:t.x_target ~addr:t.x_addr

  let eop = { Program.pc = -1; kind = Program.Compute 1 }

  let state_into t buf =
    (match t.icache with Some c -> Cache.snapshot c buf ~pos:0 | None -> ());
    (match t.dcache with
     | Some c -> Cache.snapshot c buf ~pos:(cache_lines t.icache)
     | None -> ());
    buf.(t.lines) <- t.acc

  (* Segments [first + period, stop) repeat the segment [period]
     earlier: the kernel skips whole periods of them. Each region's
     replayed part starts where the script ended, so the parts are
     disjoint and in order; the segment at [stop] is stored at the slot
     the next emit fills. *)
  let add_region t ~first ~period ~stop =
    let k = 4 * t.nregions in
    if k = Array.length t.regions then
      t.regions <- Array.append t.regions (Array.make (max 8 k) 0);
    t.regions.(k) <- first;
    t.regions.(k + 1) <- period;
    t.regions.(k + 2) <- stop;
    t.regions.(k + 3) <- t.stored;
    t.nregions <- t.nregions + 1

  (* At the boundary that began a new iteration of frame [d]'s loop.
     A snapshot falls due once [lines] instructions have run since the
     loop instance began or since its last snapshot, so it costs about
     as much as compiling them: the first after [k] = ⌈lines / iteration
     length⌉ iterations, then every [k]. When the state equals the last
     snapshot's, the [k] iterations in between left it where they found
     it, and their segments are the period: whole blocks of [k] of the
     iterations left are replayed, and the fewer than [k] after them
     compile as usual from the same state. Otherwise the state is kept
     for the next snapshot. *)
  let boundary t d =
    let w = t.walker in
    let n = Array.length t.snaps in
    if d >= n then
      t.snaps <-
        Array.init (d + 1) (fun i ->
            if i < n then t.snaps.(i)
            else { state = [||]; id = 0; at = 0; left = 0; seen = 0; due = 0 });
    let snap = t.snaps.(d) and id = Program.Walker.instance w d in
    let count = Program.Walker.executed w in
    if snap.seen <> id then begin
      (* the instance's first boundary: one iteration has run *)
      snap.seen <- id;
      snap.due <- count - Program.Walker.iteration_length w d + t.lines
    end;
    count >= snap.due
    && begin
      (* buffers come with the loops long enough to need them; an empty
         state never equals one *)
      if Array.length t.scratch = 0 then t.scratch <- Array.make (t.lines + 1) 0;
      let left = Program.Walker.iterations_left w d in
      let k = snap.left - left in
      state_into t t.scratch;
      if snap.id = id && t.len > snap.at && k <= left && t.scratch = snap.state then begin
        let period = t.len - snap.at and blocks = left / k in
        let n = blocks * period in
        add_region t ~first:snap.at ~period ~stop:(t.len + n);
        t.len <- t.len + n;
        (* every segment of a period is a transaction *)
        t.pass_txns <- t.pass_txns + n;
        Program.Walker.skip_iterations w d (blocks * k);
        Obs.Metrics.add m_replayed n;
        (* the iterations left over fit in no period *)
        snap.due <- max_int;
        true
      end
      else begin
        let prev = snap.state in
        snap.state <- t.scratch;
        t.scratch <- prev;
        snap.id <- id;
        snap.at <- t.len;
        snap.left <- left;
        snap.due <- count + t.lines;
        false
      end
    end

  (* Compiles the next instruction or pass end, or replays a loop. The
     walker rewinds at a pass end while the caches stay warm: restart
     semantics. *)
  let compile_next t =
    let i = Program.Walker.next_or t.walker ~default:eop in
    if i == eop then begin
      Program.Walker.reset t.walker;
      let silent = t.pass_txns = 0 in
      emit t ((t.acc lsl 5) lor if silent then tag_silent_end else tag_pass_end) 0;
      t.complete <- silent;
      t.acc <- 1;
      t.pass_txns <- 0
    end
    else begin
      let d = Program.Walker.restarted t.walker in
      if not (d >= 0 && boundary t d) then
        try compile_instr t i
        with e ->
          emit t ((t.acc lsl 5) lor tag_fail) 0;
          t.failed <- Some e;
          t.complete <- true
    end

  (* where region [r]'s replayed part starts *)
  let starts t r = t.regions.(4 * r) + t.regions.((4 * r) + 1)

  (* Compiles up to segment [i], points [c] at the window around it and
     returns its slot. Readers never read past a silent end or a
     failure. A segment in a region's replayed part repeats the one
     [k × period] earlier, inside the region's first period: map it
     there and look again, since that period may hold an inner region.
     A segment in no replayed part is stored, shifted back by the
     replayed segments before it. The window is every segment the same
     steps map by the same shift; it lies within the compiled segments.
     One that reaches the end of the script ends there, since a region
     may start there; a reader at the end finds the last region without
     a search. *)
  let locate t c i =
    while t.len <= i && not t.complete do
      compile_next t
    done;
    let n = t.nregions in
    let y = ref i and lo = ref 0 and hi = ref max_int and slot = ref (-1) in
    while !slot < 0 do
      (* [a]: the regions whose replayed part starts at or before [y] *)
      let a = ref (if n > 0 && starts t (n - 1) <= !y then n else 0) and b = ref n in
      while !a < !b do
        let m = (!a + !b) lsr 1 in
        if starts t m <= !y then a := m + 1 else b := m
      done;
      let r = !a - 1 in
      let shift = i - !y in
      if r >= 0 && !y < t.regions.((4 * r) + 2) then begin
        let first = t.regions.(4 * r) and period = t.regions.((4 * r) + 1) in
        let from = first + ((!y - first) / period * period) in
        lo := max !lo (from + shift);
        hi := min !hi (min (from + period) t.regions.((4 * r) + 2) + shift);
        y := !y - (from - first)
      end
      else begin
        let stop = if r >= 0 then t.regions.((4 * r) + 2) else 0 in
        let at = if r >= 0 then t.regions.((4 * r) + 3) else 0 in
        let next = if !a < n then starts t !a else t.len in
        lo := max !lo (stop + shift);
        hi := min !hi (next + shift);
        slot := at + (!y - stop)
      end
    done;
    c.lo <- !lo;
    c.hi <- !hi;
    c.delta <- !slot - i;
    !slot

  let w0 t c i =
    let s = if i >= c.lo && i < c.hi then i + c.delta else locate t c i in
    t.chunks.(s lsr seg_bits).((s land ((1 lsl seg_bits) - 1)) lsl 1)

  (* [i]'s [w0] was read through [c] just before *)
  let w1 t c i =
    let s = i + c.delta in
    t.chunks.(s lsr seg_bits).(((s land ((1 lsl seg_bits) - 1)) lsl 1) + 1)

  let footprint t = max 1 ((t.stored + (1 lsl seg_bits) - 1) lsr seg_bits) lsl seg_bits

  let regions t =
    List.init t.nregions (fun r ->
        (t.regions.(4 * r), t.regions.((4 * r) + 1), t.regions.((4 * r) + 2)))

  let gap w0 = w0 asr 5
  let tag w0 = w0 land 7
  let miss w0 = (w0 lsr 3) land 3
end

(* --- The crossbar -----------------------------------------------------------
   The SRI (see the interface for its arbitration and timing). State is
   ints only. A master blocks until its transaction completes, so it has
   at most one outstanding: an interface's queue is the set of masters
   whose outstanding request targets it, and the request itself (line,
   op, fold flag, issue cycle) lives in per-master slots. Targets are
   indexed in {!Platform.Target.all} order, ops as [0] = code, [1] =
   data. [pending] counts the queued requests of all interfaces, so an
   event with nothing queued scans none of them. *)
module Sri = struct
  let targets = Array.of_list Target.all
  let ntargets = Array.length targets
  let ops = [| Op.Code; Op.Data |]

  let tindex = function
    | Target.Dfl -> 0
    | Target.Pf0 -> 1
    | Target.Pf1 -> 2
    | Target.Lmu -> 3

  let lmu = tindex Target.Lmu
  let pair target op = (target * 2) + op

  type t = {
    ncores : int;
    priorities : int array;
    (* per (target, op) pair *)
    lmin : int array;
    lmax : int array;
    hide : int array;
    lmu_dirty : int;
    (* per interface *)
    busy_until : int array;
    last_line : int array; (* line of the last served transaction; -1 none *)
    last_served : int array;
    queued : int array; (* waiting requests *)
    mutable pending : int; (* waiting requests on all interfaces *)
    (* per master: the outstanding transaction *)
    p_target : int array; (* -1 unless waiting for a grant *)
    p_op : int array;
    p_line : int array;
    p_folded : bool array;
    p_issued : int array;
    p_done : int array;
    served : int array; (* per master and pair *)
    (* per-target metric totals, flushed by [flush_metrics] *)
    busy : int array;
    wait : int array;
    grants : int array;
    tracing : bool;
    mutable events : Trace.event list; (* newest first *)
  }

  (* Per-target service/wait cycle totals. Values are simulated cycles, so
     the totals are exactly reproducible and jobs-invariant — the software
     analogue of the DSU's per-slave occupancy counters. *)
  let target_tag = function
    | Target.Dfl -> "dfl"
    | Target.Pf0 -> "pf0"
    | Target.Pf1 -> "pf1"
    | Target.Lmu -> "lmu"

  let m_busy, m_wait, m_grants =
    let mk f = Array.map (fun t -> f (Printf.sprintf "sri.%s.%s" (target_tag t))) targets in
    ( mk (fun n -> Obs.Metrics.gauge (n "busy_cycles")),
      mk (fun n -> Obs.Metrics.gauge (n "wait_cycles")),
      mk (fun n -> Obs.Metrics.counter (n "grants")) )

  let create ~latency ~priorities ~trace ~ncores =
    let priorities =
      match priorities with None -> Array.make ncores 0 | Some p -> Array.copy p
    in
    let per_pair f =
      Array.init (2 * ntargets) (fun i ->
          let target = targets.(i / 2) and op = ops.(i mod 2) in
          if Op.valid target op then f target op else 0)
    in
    let lmin = per_pair (Latency.lmin latency) in
    {
      ncores;
      priorities;
      lmin;
      lmax = per_pair (Latency.lmax latency);
      hide = per_pair (fun t o -> Latency.lmin latency t o - Latency.min_stall latency t o);
      lmu_dirty = Latency.lmu_dirty_lmax latency;
      busy_until = Array.make ntargets 0;
      last_line = Array.make ntargets (-1);
      last_served = Array.make ntargets (ncores - 1);
      queued = Array.make ntargets 0;
      pending = 0;
      p_target = Array.make ncores (-1);
      p_op = Array.make ncores 0;
      p_line = Array.make ncores 0;
      p_folded = Array.make ncores false;
      p_issued = Array.make ncores 0;
      p_done = Array.make ncores max_int;
      served = Array.make (ncores * 2 * ntargets) 0;
      busy = Array.make ntargets 0;
      wait = Array.make ntargets 0;
      grants = Array.make ntargets 0;
      tracing = trace;
      events = [];
    }

  (* [lmin - cs] for the pair: the part of an observed transaction the
     calibrated stall counters do not see *)
  let hide t ~target ~op = t.hide.(pair target op)

  (* completion cycle of [core]'s latest request once granted; [max_int]
     while it waits *)
  let done_at t ~core = t.p_done.(core)

  (* Streaming (line-buffer) hits only exist on the flash interfaces; the
     LMU SRAM has lmin = lmax anyway. The 256-bit buffer serves repeats of
     the current line and — thanks to next-line prefetch — the immediately
     following line of a sequential stream. *)
  let service_time t i core =
    let line = t.p_line.(core) and k = pair i t.p_op.(core) in
    if t.p_folded.(core) && i = lmu then t.lmu_dirty
    else if
      i <> lmu (* the flash interfaces *)
      && t.last_line.(i) >= 0
      && (t.last_line.(i) = line || t.last_line.(i) + Memory_map.line_bytes = line)
    then t.lmin.(k)
    else t.lmax.(k)

  let grant t i cycle core =
    let svc = service_time t i core in
    let op = t.p_op.(core) and issued = t.p_issued.(core) in
    t.p_done.(core) <- cycle + svc;
    t.p_target.(core) <- -1;
    t.queued.(i) <- t.queued.(i) - 1;
    t.pending <- t.pending - 1;
    t.busy_until.(i) <- cycle + svc;
    t.last_line.(i) <- t.p_line.(core);
    t.last_served.(i) <- core;
    let k = (core * 2 * ntargets) + pair i op in
    t.served.(k) <- t.served.(k) + 1;
    t.busy.(i) <- t.busy.(i) + svc;
    t.wait.(i) <- t.wait.(i) + (cycle - issued);
    t.grants.(i) <- t.grants.(i) + 1;
    if t.tracing then
      t.events <-
        {
          Trace.issue_cycle = issued;
          grant_cycle = cycle;
          complete_cycle = cycle + svc;
          core;
          target = targets.(i);
          op = ops.(op);
          service = svc;
          waited = cycle - issued;
        }
        :: t.events

  (* Arbitration: most urgent priority class first (lower value wins), then
     round-robin within the class — smallest positive distance from the
     last served master. Distances are distinct, so arrival order never
     matters and the queue needs none. *)
  let try_grant t i ~cycle =
    if t.queued.(i) > 0 && t.busy_until.(i) <= cycle then begin
      let best = ref (-1) and core = ref t.last_served.(i) in
      for _ = 1 to t.ncores do
        core := if !core = t.ncores - 1 then 0 else !core + 1;
        if
          t.p_target.(!core) = i
          && (!best < 0 || t.priorities.(!core) < t.priorities.(!best))
        then best := !core
      done;
      grant t i cycle !best
    end

  let record t ~core ~target ~op ~line ~folded ~cycle =
    t.p_target.(core) <- target;
    t.p_op.(core) <- op;
    t.p_line.(core) <- line;
    t.p_folded.(core) <- folded;
    t.p_issued.(core) <- cycle;
    t.p_done.(core) <- max_int;
    t.queued.(target) <- t.queued.(target) + 1;
    t.pending <- t.pending + 1

  (* Enqueues [core]'s transaction, granted within the same cycle if the
     target is idle. [folded] marks a cacheable LMU fill carrying its
     victim's write-back. The caller guarantees an admissible pair, that
     [core] has no other transaction waiting for a grant, and that
     [step] has run at [cycle]. An idle target then has an empty queue
     (requests to it are granted at once, and [step] grants queued ones
     when it frees), so the request is the only candidate and needs no
     arbitration. *)
  let request t ~core ~target ~op ~line ~folded ~cycle =
    record t ~core ~target ~op ~line ~folded ~cycle;
    if t.busy_until.(target) <= cycle then grant t target cycle core

  (* With no other request queued and no other master issuing again,
     arbitration has one candidate: the request is granted as soon as its
     target is free — later than [cycle] only while another master's last
     transaction is still in service. Returns the grant cycle; a grant
     past [limit] is not made, and the request stays queued. *)
  let serve_alone t ~core ~target ~op ~line ~folded ~cycle ~limit =
    record t ~core ~target ~op ~line ~folded ~cycle;
    let at = if t.busy_until.(target) > cycle then t.busy_until.(target) else cycle in
    if at <= limit then grant t target at core;
    at

  (* Skipping periods alone: what the solo master's future depends on is
     each interface's [busy_until] — only as far as it lies past the
     current cycle, since every later request issues at or after it — and
     its line buffer. *)
  let solo_state_words = 2 * ntargets
  let solo_total_words = 6 * ntargets

  (* Writes the state relative to [cycle] (per interface, how far its
     [busy_until] lies past [cycle], and its line) at [state], and the
     totals (per interface [busy_until], busy, wait and grant totals,
     then [core]'s served counts) at [totals]. *)
  let solo_snapshot t ~core ~cycle buf ~state ~totals =
    for i = 0 to ntargets - 1 do
      let b = t.busy_until.(i) in
      buf.(state + (2 * i)) <- (if b > cycle then b - cycle else 0);
      buf.(state + (2 * i) + 1) <- t.last_line.(i);
      buf.(totals + i) <- b;
      buf.(totals + ntargets + i) <- t.busy.(i);
      buf.(totals + (2 * ntargets) + i) <- t.wait.(i);
      buf.(totals + (3 * ntargets) + i) <- t.grants.(i)
    done;
    Array.blit t.served (core * 2 * ntargets) buf (totals + (4 * ntargets)) (2 * ntargets)

  (* Applies [times] more periods like the one since the totals at
     [totals] were taken: every total grows by [times] × its change, and
     [core]'s transaction times and the [busy_until] of each interface
     the period used shift by [times × cycles]. *)
  let solo_advance t ~core buf ~totals ~times ~cycles =
    let shift = times * cycles in
    let grow a j at = a.(j) <- a.(j) + (times * (a.(j) - buf.(at))) in
    for i = 0 to ntargets - 1 do
      (* an interface the period used moves on with it; the others stay *)
      if t.busy_until.(i) <> buf.(totals + i) then
        t.busy_until.(i) <- t.busy_until.(i) + shift;
      grow t.busy i (totals + ntargets + i);
      grow t.wait i (totals + (2 * ntargets) + i);
      grow t.grants i (totals + (3 * ntargets) + i)
    done;
    for k = 0 to (2 * ntargets) - 1 do
      grow t.served ((core * 2 * ntargets) + k) (totals + (4 * ntargets) + k)
    done;
    t.p_issued.(core) <- t.p_issued.(core) + shift;
    if t.p_done.(core) < max_int then t.p_done.(core) <- t.p_done.(core) + shift

  (* Grants pending requests on every target idle at [cycle]. Grants only
     fire at cycles [next_grant_at] reports or at request time. Most
     events find nothing queued: most requests are granted at issue. *)
  let step t ~cycle =
    if t.pending > 0 then
      for i = 0 to ntargets - 1 do
        try_grant t i ~cycle
      done

  (* The earliest cycle a queued request can be granted — the minimum
     [busy_until] over interfaces with a queue — or [max_int] when nothing
     is queued. A free interface never carries a queue between cycles. *)
  let next_grant_at t =
    if t.pending = 0 then max_int
    else begin
      let at = ref max_int in
      for i = 0 to ntargets - 1 do
        if t.queued.(i) > 0 && t.busy_until.(i) < !at then at := t.busy_until.(i)
      done;
      !at
    end

  let profile t ~core =
    Access_profile.make
      (List.map
         (fun (target, op) ->
            let o = if Op.equal op Op.Code then 0 else 1 in
            ((target, op), t.served.((core * 2 * ntargets) + pair (tindex target) o)))
         Op.valid_pairs)

  let trace t = List.rev t.events

  (* adds the per-target totals to the [sri.<target>.*] metrics and
     zeroes them *)
  let flush_metrics t =
    for i = 0 to ntargets - 1 do
      Obs.Metrics.gauge_add m_busy.(i) t.busy.(i);
      Obs.Metrics.gauge_add m_wait.(i) t.wait.(i);
      Obs.Metrics.add m_grants.(i) t.grants.(i);
      t.busy.(i) <- 0;
      t.wait.(i) <- 0;
      t.grants.(i) <- 0
    done
end

(* --- Cores ----------------------------------------------------------------
   A core is a cursor into its script plus int registers. Its next event
   is [anchor + gap] of the next segment: the cycle it issues a request
   (or, for the analysis core, ends or fails). Between issuing and the
   grant it waits; once the crossbar reports the grant, the completion
   cycle becomes the anchor, and the transaction's stall is committed at
   the core's next event or, if it completed by then, at the end of the
   run. Restart passes
   are walked lazily, at the next event or when the run ends, so no pass
   end past the analysis task's finish is ever counted. *)

type role = Analysis | Restarting | Once

type t = {
  script : Script.t;
  win : Script.window;
  sri : Sri.t;
  core_id : int;
  role : role;
  mutable seg : int;  (* next segment *)
  mutable anchor : int;
  mutable next : int;
  mutable waiting : bool;  (* issued, grant not yet seen *)
  mutable stall_base : int;  (* issue cycle + hidden latency *)
  mutable op : int;  (* of the latest transaction *)
  mutable done_at : int;  (* its completion while the stall is uncommitted *)
  mutable stop : int;  (* analysis finish, or a [Once] core's pass end; -1 *)
  mutable restart_count : int;
  mutable ccnt : int;
  mutable pmem_stall : int;
  mutable dmem_stall : int;
  mutable pcache_miss : int;
  mutable dcache_miss_clean : int;
  mutable dcache_miss_dirty : int;
}

(* Cycle of the first event at or after segment [seg], skipping the pass
   ends a restarting core runs through silently. *)
let rec peek t seg anchor =
  let w0 = Script.w0 t.script t.win seg in
  let at = anchor + Script.gap w0 in
  let tag = Script.tag w0 in
  if tag = Script.tag_pass_end && t.role = Restarting then peek t (seg + 1) at
  else if
    (tag = Script.tag_pass_end || tag = Script.tag_silent_end) && t.role <> Analysis
  then max_int
  else at

let create script ~sri ~core_id role =
  let t =
    {
      script;
      win = Script.window ();
      sri;
      core_id;
      role;
      seg = 0;
      anchor = -1;
      next = max_int;
      waiting = false;
      stall_base = 0;
      op = 0;
      done_at = max_int;
      stop = -1;
      restart_count = 0;
      ccnt = 0;
      pmem_stall = 0;
      dmem_stall = 0;
      pcache_miss = 0;
      dcache_miss_clean = 0;
      dcache_miss_dirty = 0;
    }
  in
  t.next <- peek t 0 (-1);
  t

let wake t =
  if t.waiting then begin
    let d = Sri.done_at t.sri ~core:t.core_id in
    if d < max_int then begin
      t.waiting <- false;
      t.done_at <- d;
      t.anchor <- d;
      t.next <- peek t t.seg d
    end
  end;
  t.next

let commit_stall t =
  if t.done_at < max_int then begin
    let stall = max 0 (t.done_at - t.stall_base) in
    if t.op = 0 then t.pmem_stall <- t.pmem_stall + stall
    else t.dmem_stall <- t.dmem_stall + stall;
    t.done_at <- max_int
  end

(* The issue step of [fire] and [fire_alone]: bumps the miss counter,
   advances past the segment and waits for the grant. Returns [w1]. *)
let issue t w0 ~cycle =
  let w1 = Script.w1 t.script t.win t.seg in
  (match Script.miss w0 with
   | 1 -> t.pcache_miss <- t.pcache_miss + 1
   | 2 -> t.dcache_miss_clean <- t.dcache_miss_clean + 1
   | 3 -> t.dcache_miss_dirty <- t.dcache_miss_dirty + 1
   | _ -> ());
  let op = if Script.tag w0 = Script.tag_code then 0 else 1 in
  t.seg <- t.seg + 1;
  t.waiting <- true;
  t.next <- max_int;
  t.stall_base <- cycle + Sri.hide t.sri ~target:(w1 land 3) ~op;
  t.op <- op;
  w1

(* A failure segment raises; the analysis program's end stops the core,
   its last cycle uncounted. *)
let stop t w0 ~cycle =
  if Script.tag w0 = Script.tag_fail then raise (Option.get t.script.Script.failed);
  t.stop <- cycle;
  t.ccnt <- cycle;
  t.next <- max_int

let fire t ~cycle =
  commit_stall t;
  let w0 = ref (Script.w0 t.script t.win t.seg) in
  while Script.tag !w0 = Script.tag_pass_end && t.role = Restarting do
    t.anchor <- t.anchor + Script.gap !w0;
    t.seg <- t.seg + 1;
    t.restart_count <- t.restart_count + 1;
    w0 := Script.w0 t.script t.win t.seg
  done;
  let w0 = !w0 in
  if Script.tag w0 <= Script.tag_folded then begin
    let w1 = issue t w0 ~cycle in
    Sri.request t.sri ~core:t.core_id ~target:(w1 land 3) ~op:t.op ~line:(w1 lsr 2)
      ~folded:(Script.tag w0 = Script.tag_folded) ~cycle
  end
  else stop t w0 ~cycle

let fire_alone t ~cycle ~limit =
  commit_stall t;
  let w0 = Script.w0 t.script t.win t.seg in
  if Script.tag w0 <= Script.tag_folded then begin
    let w1 = issue t w0 ~cycle in
    Sri.serve_alone t.sri ~core:t.core_id ~target:(w1 land 3) ~op:t.op
      ~line:(w1 lsr 2) ~folded:(Script.tag w0 = Script.tag_folded) ~cycle ~limit
  end
  else begin
    stop t w0 ~cycle;
    cycle
  end

let finished t = t.stop >= 0

let finish_cycle t =
  if t.role <> Analysis || t.stop < 0 then
    failwith "Core_model.finish_cycle: not finished";
  t.stop

let settle t ~cycle =
  ignore (wake t);
  if t.done_at <= cycle then commit_stall t;
  let walking = ref (not t.waiting) in
  while !walking do
    let w0 = Script.w0 t.script t.win t.seg in
    let tag = Script.tag w0 and e = t.anchor + Script.gap w0 in
    walking := false;
    if (tag = Script.tag_pass_end || tag = Script.tag_silent_end) && e <= cycle then
      if t.role = Once then t.stop <- e
      else if tag = Script.tag_silent_end then
        (* every later pass repeats this one *)
        t.restart_count <- t.restart_count + ((cycle - t.anchor) / Script.gap w0)
      else begin
        t.restart_count <- t.restart_count + 1;
        t.anchor <- e;
        t.seg <- t.seg + 1;
        walking := true
      end
  done;
  (* every cycle counts except those that ended a pass *)
  t.ccnt <- (if t.stop >= 0 then t.stop else cycle + 1 - t.restart_count)

let counters t =
  {
    Counters.ccnt = t.ccnt;
    pmem_stall = t.pmem_stall;
    dmem_stall = t.dmem_stall;
    pcache_miss = t.pcache_miss;
    dcache_miss_clean = t.dcache_miss_clean;
    dcache_miss_dirty = t.dcache_miss_dirty;
  }

let restarts t = t.restart_count
let core_id t = t.core_id

(* --- Skipping periods alone -------------------------------------------------
   While the analysis core is alone on the SRI, nothing but its own
   events changes the machine. At a boundary of a replayed region — its
   cursor at [first + k × period], about to fire the segment there — the
   whole state that decides the future, taken relative to the cycle of
   that event, is the core's registers and the crossbar's interfaces.
   When it is equal at two consecutive boundaries, the period between
   them was stepped from the same state through the same segments, so
   every later period of the region repeats it, shifted by its cycles:
   whole periods are applied arithmetically (DESIGN.md §7). *)
module Solo = struct
  (* buffer layout: the state words (compared), then the totals *)
  let core_state = 6
  let state_words = core_state + Sri.solo_state_words
  let core_totals = state_words
  let sri_totals = core_totals + 5
  let clock = sri_totals + Sri.solo_total_words (* events, then the cycle *)
  let words = clock + 2

  type core = t

  type t = {
    core : core;
    mutable snap : int array;  (* the state at boundary [at] *)
    mutable cur : int array;
    mutable known : int;  (* regions scanned for [watch] *)
    mutable watch : int;  (* the next segment worth a look *)
    mutable region : int;  (* the region [snap] was taken in; -1 none *)
    mutable at : int;
    mutable period_events : int;
    mutable period_cycles : int;
  }

  let create core =
    {
      core;
      snap = Array.make words 0;
      cur = Array.make words 0;
      known = -1;
      watch = -1;
      region = -1;
      at = 0;
      period_events = 0;
      period_cycles = 0;
    }

  let period_events k = k.period_events
  let period_cycles k = k.period_cycles
  let due k = k.core.seg >= k.watch || k.core.script.Script.nregions <> k.known

  let rel v ~cycle = if v = max_int then min_int else v - cycle

  (* relative to the cycle of the event the core is about to fire *)
  let snapshot k buf ~events =
    let c = k.core in
    let cycle = c.next in
    buf.(0) <- rel c.anchor ~cycle;
    buf.(1) <- rel c.next ~cycle;
    buf.(2) <- Bool.to_int c.waiting;
    buf.(3) <- rel c.done_at ~cycle;
    buf.(4) <- c.stall_base - cycle;
    buf.(5) <- c.op;
    Sri.solo_snapshot c.sri ~core:c.core_id ~cycle buf ~state:core_state
      ~totals:sri_totals;
    buf.(core_totals) <- c.pmem_stall;
    buf.(core_totals + 1) <- c.dmem_stall;
    buf.(core_totals + 2) <- c.pcache_miss;
    buf.(core_totals + 3) <- c.dcache_miss_clean;
    buf.(core_totals + 4) <- c.dcache_miss_dirty;
    buf.(clock) <- events;
    buf.(clock + 1) <- cycle

  let same_state a b =
    let rec go i = i = state_words || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let first k r = k.core.script.Script.regions.(4 * r)
  let period k r = k.core.script.Script.regions.((4 * r) + 1)
  let stop k r = k.core.script.Script.regions.((4 * r) + 2)

  (* Sets [watch] to the first boundary at or after [from] with two whole
     periods left in its region — one to compare, at least one to skip —
     and returns that region, the outermost where boundaries coincide. *)
  let scan k ~from =
    let best = ref (-1) in
    k.watch <- max_int;
    for r = 0 to k.core.script.Script.nregions - 1 do
      let f = first k r and p = period k r in
      let b = if from <= f then f else f + ((from - f + p - 1) / p * p) in
      if
        b + (2 * p) <= stop k r
        && (b < k.watch
            || (b = k.watch && stop k r - f > stop k !best - first k !best))
      then begin
        k.watch <- b;
        best := r
      end
    done;
    !best

  (* Applies [times] periods of [cycles] cycles each: the totals grow by
     [times] × their change since [snap], the cycle registers shift. *)
  let advance k ~times ~cycles ~segs =
    let c = k.core and b = k.snap in
    let shift = times * cycles in
    let grow v i = v + (times * (v - b.(core_totals + i))) in
    c.pmem_stall <- grow c.pmem_stall 0;
    c.dmem_stall <- grow c.dmem_stall 1;
    c.pcache_miss <- grow c.pcache_miss 2;
    c.dcache_miss_clean <- grow c.dcache_miss_clean 3;
    c.dcache_miss_dirty <- grow c.dcache_miss_dirty 4;
    c.anchor <- c.anchor + shift;
    if c.done_at < max_int then c.done_at <- c.done_at + shift;
    c.stall_base <- c.stall_base + shift;
    c.seg <- c.seg + segs;
    (* the segment after the region need not be replayed *)
    c.next <- peek c c.seg c.anchor;
    Sri.solo_advance c.sri ~core:c.core_id b ~totals:sri_totals ~times ~cycles

  let check k ~events ~limit =
    let c = k.core in
    let cycle = c.next in
    k.known <- c.script.Script.nregions;
    let times = ref 0 in
    if k.region >= 0 && c.seg = k.at + period k k.region then begin
      let r = k.region in
      let p = period k r in
      snapshot k k.cur ~events;
      if same_state k.snap k.cur then begin
        k.region <- -1;
        k.period_events <- events - k.snap.(clock);
        k.period_cycles <- cycle - k.snap.(clock + 1);
        (* the first event after the skip must come at or before [limit]:
           a replayed boundary's comes [period_cycles] after the previous
           one, the segment at the region's stop after its gap *)
        let left = (stop k r - c.seg) / p in
        let m = if cycle > limit then 0 else min left ((limit - cycle) / k.period_cycles) in
        let m =
          if
            m = left
            && c.anchor + (m * k.period_cycles)
               + Script.gap (Script.w0 c.script c.win (stop k r))
               > limit
          then m - 1
          else m
        in
        if m > 0 then begin
          advance k ~times:m ~cycles:k.period_cycles ~segs:(m * p);
          times := m
        end
      end
      else if c.seg + (2 * p) <= stop k r then begin
        let prev = k.snap in
        k.snap <- k.cur;
        k.cur <- prev;
        k.at <- c.seg
      end
      else k.region <- -1
    end;
    if k.region < 0 then begin
      let r = scan k ~from:c.seg in
      if k.watch = c.seg then begin
        snapshot k k.snap ~events:(events + (!times * k.period_events));
        k.region <- r;
        k.at <- c.seg
      end
    end;
    if k.region >= 0 then k.watch <- k.at + period k k.region;
    !times
end

(* --- The kernel ----------------------------------------------------------- *)

exception Cycle_limit_exceeded of int

type sri = Sri.t

let create_sri = Sri.create
let profile = Sri.profile
let sri_trace = Sri.trace

let m_events = Obs.Metrics.counter "tcsim.events"
let m_skipped = Obs.Metrics.counter "tcsim.skipped_cycles"

(* events applied as whole periods; whether a region is known when the
   core reaches it depends on what the script memo held *)
let m_solo_skipped = Obs.Metrics.counter ~timing:true "tcsim.solo.skipped_events"

(* Wake at the earliest of the cores' next events (issues, the analysis
   task's end) and the SRI's next queued grant, and replay that cycle in
   the fixed order grants, analysis core, contenders in array order —
   the order the hardware model resolves same-cycle arbitration in.
   [stepped] visits every cycle instead; nothing happens at the others.
   Once nothing is queued and no contender will issue again, the event
   kernel steps the analysis core alone (see below). See DESIGN.md §7
   for why this is exact. *)
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
       while not (!alone || finished analysis) do
         (* the earliest event of anyone but the analysis core; a loop,
            not a closure: this runs at every event *)
         let others =
           if stepped then 0
           else begin
             let t = ref (Sri.next_grant_at sri) in
             for i = 0 to n - 1 do
               t := min !t (wake contenders.(i))
             done;
             !t
           end
         in
         if others = max_int then alone := true
         else begin
           let t = if stepped then !last + 1 else min (wake analysis) others in
           if t > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
           incr events;
           last := t;
           Sri.step sri ~cycle:t;
           if wake analysis = t then fire analysis ~cycle:t;
           for i = 0 to n - 1 do
             let c = contenders.(i) in
             if wake c = t then fire c ~cycle:t
           done
         end
       done;
       (* Alone on the crossbar: every event is the analysis core's — an
          issue, granted at once or, behind a contender's last
          transaction still in service, at a later cycle that is an
          event of its own — or its end. Untraced, whole periods of a
          replayed region are skipped at once (DESIGN.md §7). *)
       let solo = if skip then Some (Solo.create analysis) else None in
       while not (finished analysis) do
         let t = wake analysis in
         let t =
           match solo with
           | Some k when Solo.due k ->
             let m = Solo.check k ~events:!events ~limit:max_cycles in
             if m = 0 then t
             else begin
               let e = m * Solo.period_events k in
               events := !events + e;
               solo_skipped := !solo_skipped + e;
               last := !last + (m * Solo.period_cycles k);
               wake analysis
             end
           | _ -> t
         in
         if t > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
         incr events;
         last := t;
         let g = fire_alone analysis ~cycle:t ~limit:max_cycles in
         if g > t then begin
           if g > max_cycles then raise (Cycle_limit_exceeded (max_cycles + 1));
           incr events;
           last := g
         end
       done;
       let finish = finish_cycle analysis in
       Array.iter (fun c -> settle c ~cycle:finish) contenders)
