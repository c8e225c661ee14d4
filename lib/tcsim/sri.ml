open Platform

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

let create ?(latency = Latency.default) ?priorities ?(trace = false) ~ncores () =
  let priorities =
    match priorities with
    | None -> Array.make ncores 0
    | Some p ->
      if Array.length p <> ncores then
        invalid_arg "Sri.create: priority array length mismatch";
      Array.copy p
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

let hide t ~target ~op = t.hide.(pair target op)
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
  t.queued.(target) <- t.queued.(target) + 1

let request t ~core ~target ~op ~line ~folded ~cycle =
  record t ~core ~target ~op ~line ~folded ~cycle;
  try_grant t target ~cycle

(* With no other request queued, arbitration has one candidate: the
   request is granted as soon as its target is free. *)
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

let step t ~cycle =
  for i = 0 to ntargets - 1 do
    try_grant t i ~cycle
  done

let next_grant_at t =
  let at = ref max_int in
  for i = 0 to ntargets - 1 do
    if t.queued.(i) > 0 && t.busy_until.(i) < !at then at := t.busy_until.(i)
  done;
  !at

let profile t ~core =
  Access_profile.make
    (List.map
       (fun (target, op) ->
          let o = if Op.equal op Op.Code then 0 else 1 in
          ((target, op), t.served.((core * 2 * ntargets) + pair (tindex target) o)))
       Op.valid_pairs)

let trace t = List.rev t.events

let flush_metrics t =
  for i = 0 to ntargets - 1 do
    Obs.Metrics.gauge_add m_busy.(i) t.busy.(i);
    Obs.Metrics.gauge_add m_wait.(i) t.wait.(i);
    Obs.Metrics.add m_grants.(i) t.grants.(i);
    t.busy.(i) <- 0;
    t.wait.(i) <- 0;
    t.grants.(i) <- 0
  done
