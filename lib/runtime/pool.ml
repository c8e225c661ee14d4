(* Work-stealing domain pool. Each worker domain owns a Chase–Lev-style
   deque (LIFO for the owner, FIFO for thieves); external submissions
   land in a queue-of-queues injector whose batches are drained
   round-robin so concurrent submitters cannot head-of-line block each
   other. Determinism comes from batches indexing a results array by
   input position and promises being settled by task identity —
   scheduling (and stealing) can permute execution, never results. *)

type task = unit -> unit

let tasks_counter = Atomic.make 0
let tasks_run () = Atomic.get tasks_counter

(* [pool.tasks] mirrors [tasks_counter] into the metrics registry and is
   jobs-invariant like it: one increment per task executed, regardless
   of which domain ran it. [runtime.steals] / [runtime.local_hits] and
   the per-domain [pool.queue_depth.d*] gauges are timing facts of one
   particular run — how often thieves won races depends on host
   scheduling — so they are registered with [~timing:true] and stay out
   of [Obs.Metrics.deterministic_snapshot]. *)
let m_tasks = Obs.Metrics.counter "pool.tasks"
let m_steals = Obs.Metrics.counter ~timing:true "runtime.steals"
let m_local = Obs.Metrics.counter ~timing:true "runtime.local_hits"

let h_task =
  Obs.Metrics.histogram "pool.task_seconds" ~buckets:Obs.Metrics.latency_buckets

let h_wait =
  Obs.Metrics.histogram "pool.queue_wait_seconds"
    ~buckets:Obs.Metrics.latency_buckets

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some (min n 128)
  | _ -> None

let default_jobs () =
  match Option.bind (Sys.getenv_opt "AURIX_JOBS") parse_jobs with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let resolve_jobs = function
  | None -> default_jobs ()
  | Some j ->
    if j < 1 then invalid_arg "Pool: jobs must be >= 1";
    j

(* --- Chase–Lev deque ---------------------------------------------------- *)

module Deque = struct
  (* Owner pushes/pops at [bottom]; thieves take at [top] with a CAS.
     Invariants: [top] only ever increases; a logical index is written
     once ([push] publishes the slot before advancing [bottom]) and
     never reused until [top] has passed it, so a thief whose CAS on
     [top] succeeds is guaranteed to have read the live value for that
     index — even from a stale array, because [grow] copies the
     [top, bottom) range before publishing the replacement. OCaml's
     [Atomic] operations are sequentially consistent, which is all the
     fencing the classic algorithm needs. *)

  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    arr : 'a option array Atomic.t; (* capacity always a power of two *)
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      arr = Atomic.make (Array.make 64 None);
    }

  let size d =
    let b = Atomic.get d.bottom and t = Atomic.get d.top in
    if b > t then b - t else 0

  let grow d b t a =
    let n = Array.length a in
    let a' = Array.make (2 * n) None in
    for i = t to b - 1 do
      a'.(i land ((2 * n) - 1)) <- a.(i land (n - 1))
    done;
    Atomic.set d.arr a';
    a'

  let push d v =
    let b = Atomic.get d.bottom and t = Atomic.get d.top in
    let a = Atomic.get d.arr in
    let a = if b - t >= Array.length a then grow d b t a else a in
    a.(b land (Array.length a - 1)) <- Some v;
    Atomic.set d.bottom (b + 1)

  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* empty: restore the canonical empty state *)
      Atomic.set d.bottom t;
      None
    end
    else begin
      let a = Atomic.get d.arr in
      let i = b land (Array.length a - 1) in
      let v = a.(i) in
      if b > t then begin
        a.(i) <- None;
        v
      end
      else begin
        (* last element: arbitrate with thieves through [top] *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then begin
          a.(i) <- None;
          v
        end
        else None
      end
    end

  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if b <= t then None
    else begin
      let a = Atomic.get d.arr in
      let v = a.(t land (Array.length a - 1)) in
      if Atomic.compare_and_set d.top t (t + 1) then v else None
    end
end

(* --- pool --------------------------------------------------------------- *)

type t = {
  jobs : int;
  deques : task Deque.t array; (* length jobs - 1; deques.(i) owned by worker i *)
  depth : Obs.Metrics.gauge array; (* pool.queue_depth.d<i>, timing facts *)
  injector : task Queue.t Queue.t; (* rotating queue of batch queues *)
  inj_lock : Mutex.t;
  pending : int Atomic.t; (* queued-but-unclaimed tasks, pool-wide *)
  park : Mutex.t;
  wake : Condition.t;
  stop : bool Atomic.t;
  seed : int; (* steal-order seed; per-worker streams derive from it *)
  mutable workers : unit Domain.t list;
}

(* Worker identity travels in domain-local storage. Worker domains are
   dedicated (they run no systhreads), so a [Some ctx] binding always
   means "this code executes on worker [windex] of [wpool]". *)
type wctx = { wpool : t; windex : int; rng : int ref }

let dls_ctx : wctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker_ctx t =
  match Domain.DLS.get dls_ctx with
  | Some c when c.wpool == t -> Some c
  | _ -> None

(* --- promises ----------------------------------------------------------- *)

module Task = struct
  type 'a state = Pending | Done of 'a | Failed of exn

  type 'a t = {
    st : 'a state Atomic.t;
    tm : Mutex.t; (* guards parked awaiters, not [st] *)
    tc : Condition.t;
  }

  let create () =
    { st = Atomic.make Pending; tm = Mutex.create (); tc = Condition.create () }

  let peek p =
    match Atomic.get p.st with
    | Pending -> None
    | Done v -> Some (Ok v)
    | Failed e -> Some (Error e)

  let settle p out =
    let next = match out with Ok v -> Done v | Error e -> Failed e in
    let rec go () =
      match Atomic.get p.st with
      | Pending ->
        if Atomic.compare_and_set p.st Pending next then begin
          (* waiters check [st] under [tm] before sleeping, so locking
             here closes the check-then-wait race *)
          Mutex.lock p.tm;
          Condition.broadcast p.tc;
          Mutex.unlock p.tm
        end
        else go ()
      | _ -> invalid_arg "Pool.Task: promise already settled"
    in
    go ()

  let fulfill p v = settle p (Ok v)
  let fail p e = settle p (Error e)

  (* Sleep until settled — but only when the pool has no claimable work
     ([has_work] rechecked under the lock); otherwise return immediately
     so the awaiter goes back to helping. *)
  let park p ~has_work =
    Mutex.lock p.tm;
    (match Atomic.get p.st with
     | Pending when not (has_work ()) -> Condition.wait p.tc p.tm
     | _ -> ());
    Mutex.unlock p.tm
end

(* --- scheduling --------------------------------------------------------- *)

let wake_all t =
  Mutex.lock t.park;
  Condition.broadcast t.wake;
  Mutex.unlock t.park

(* Submit a list of tasks as one unit: a worker of this pool pushes to
   its own deque (LIFO, cache-warm); anyone else appends a fresh batch
   queue to the injector so concurrent batches interleave round-robin
   instead of queueing behind each other. *)
let enqueue_list t tasks n =
  (match worker_ctx t with
   | Some c ->
     let d = t.deques.(c.windex) in
     List.iter (fun task -> Deque.push d task) tasks;
     Obs.Metrics.set t.depth.(c.windex) (Deque.size d)
   | None ->
     let q = Queue.create () in
     List.iter (fun task -> Queue.add task q) tasks;
     Mutex.lock t.inj_lock;
     Queue.add q t.injector;
     Mutex.unlock t.inj_lock);
  ignore (Atomic.fetch_and_add t.pending n);
  wake_all t

let enqueue t task = enqueue_list t [ task ] 1

(* One task from the injector, rotating the drawn-from batch to the back
   so each claim round-robins across live batches. *)
let injector_take t =
  Mutex.lock t.inj_lock;
  let rec go () =
    match Queue.take_opt t.injector with
    | None -> None
    | Some batch -> (
      match Queue.take_opt batch with
      | None -> go () (* drained batch: drop it *)
      | Some task ->
        if not (Queue.is_empty batch) then Queue.add batch t.injector;
        Some task)
  in
  let r = go () in
  Mutex.unlock t.inj_lock;
  r

(* 48-bit LCG (Java's java.util.Random constants): fits OCaml's 63-bit
   ints with room for the multiply, and bits 24..47 are well mixed. *)
let lcg s = ((s * 25214903917) + 11) land 0xFFFFFFFFFFFF

(* Randomized-but-seeded victim selection: each stream's victim sequence
   is a pure function of the pool seed and the stealer's identity, so
   two runs attempt the same steal order (what each attempt finds still
   depends on timing — hence the timing-fact metrics). *)
let try_steal t ~self rng =
  let n = Array.length t.deques in
  let rec go k =
    if k = 0 then None
    else begin
      rng := lcg !rng;
      let v = !rng lsr 24 mod n in
      if v = self then go (k - 1)
      else
        match Deque.steal t.deques.(v) with
        | Some _ as r ->
          Obs.Metrics.incr m_steals;
          Obs.Metrics.set t.depth.(v) (Deque.size t.deques.(v));
          r
        | None -> go (k - 1)
    end
  in
  if n = 0 then None else go (2 * n)

(* Claim one task without stealing: own deque (LIFO) → injector
   (round-robin). [self = -1] marks a helper with no deque (batch
   submitter, awaiter on a foreign domain): it starts at the injector.
   This is the whole help menu for promise awaiters — see [await]. *)
let next_task_local t ~self =
  let local = if self >= 0 then Deque.pop t.deques.(self) else None in
  match local with
  | Some task ->
    Obs.Metrics.incr m_local;
    Obs.Metrics.set t.depth.(self) (Deque.size t.deques.(self));
    Atomic.decr t.pending;
    Some task
  | None -> (
    match injector_take t with
    | Some task ->
      Atomic.decr t.pending;
      Some task
    | None -> None)

(* Claim one task: own deque (LIFO) → injector (round-robin) → steal.
   Only the worker main loop steals; awaiters never do. *)
let next_task t ~self rng =
  match next_task_local t ~self with
  | Some _ as r -> r
  | None -> (
    match try_steal t ~self rng with
    | Some task ->
      Atomic.decr t.pending;
      Some task
    | None -> None)

let mix seed i = lcg (seed lxor (((i + 1) * 0x9E3779B9) land max_int))

let worker t index =
  let ctx = { wpool = t; windex = index; rng = ref (mix t.seed index) } in
  Domain.DLS.set dls_ctx (Some ctx);
  let rec loop () =
    match next_task t ~self:index ctx.rng with
    | Some task ->
      task ();
      loop ()
    | None ->
      if Atomic.get t.stop then () (* drained and stopped *)
      else begin
        Mutex.lock t.park;
        (* recheck under the lock: submitters increment [pending] before
           broadcasting, so a missed task implies a pending broadcast *)
        if (not (Atomic.get t.stop)) && Atomic.get t.pending <= 0 then
          Condition.wait t.wake t.park;
        Mutex.unlock t.park;
        loop ()
      end
  in
  loop ()

let create ?jobs () =
  let jobs = resolve_jobs jobs in
  let nw = jobs - 1 in
  let t =
    {
      jobs;
      deques = Array.init nw (fun _ -> Deque.create ());
      depth =
        Array.init nw (fun i ->
            Obs.Metrics.gauge ~timing:true
              (Printf.sprintf "pool.queue_depth.d%d" i));
      injector = Queue.create ();
      inj_lock = Mutex.create ();
      pending = Atomic.make 0;
      park = Mutex.create ();
      wake = Condition.create ();
      stop = Atomic.make false;
      seed = 0x2545F4914F6CDD1D land max_int;
      workers = [];
    }
  in
  t.workers <- List.init nw (fun i -> Domain.spawn (fun () -> worker t i));
  t

let jobs t = t.jobs

let shutdown t =
  Atomic.set t.stop true;
  wake_all t;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Process-wide shared pool, sized by [default_jobs] at first use. The
   serve daemon (when not pinned to an explicit --jobs) and nested
   [both]/[run_all] calls all land here, sharing one set of domains
   instead of oversubscribing the host. Never shut down explicitly —
   an [at_exit] hook joins the workers at process end. *)
let shared_lock = Mutex.create ()
let shared_ref = ref None

let shared () =
  Mutex.lock shared_lock;
  let p =
    match !shared_ref with
    | Some p -> p
    | None ->
      let p = create () in
      shared_ref := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock shared_lock;
  p

(* --- task execution ----------------------------------------------------- *)

let inline_task f =
  Atomic.incr tasks_counter;
  Obs.Metrics.incr m_tasks;
  let started_at = Unix.gettimeofday () in
  let r = f () in
  Obs.Metrics.observe h_task (Unix.gettimeofday () -. started_at);
  r

let run_inline thunks = List.map inline_task thunks

let span_attrs label () =
  match label with Some l -> [ ("batch", l) ] | None -> []

(* Wrap a user thunk into a pool task: queue-wait + task-latency
   histograms, the jobs-invariant task counter, the submitter's ambient
   trace id, and a [pool.task] span carrying the batch label. The
   outcome lands in [settle]. *)
let make_task ?label ~trace ~enqueued_at f settle =
  fun () ->
    let started_at = Unix.gettimeofday () in
    Obs.Metrics.observe h_wait (started_at -. enqueued_at);
    let r =
      try
        Ok
          (Obs.Tracer.with_trace trace (fun () ->
               Obs.Tracer.with_span ~attrs:(span_attrs label) "pool.task" f))
      with e -> Error e
    in
    Atomic.incr tasks_counter;
    Obs.Metrics.incr m_tasks;
    Obs.Metrics.observe h_task (Unix.gettimeofday () -. started_at);
    settle r

let spawn ?label t f =
  let p = Task.create () in
  if t.workers = [] then
    (* sequential pool: eager inline execution — spawn/await keep their
       meaning with zero domains, and the order is the program order *)
    Task.settle p (try Ok (inline_task f) with e -> Error e)
  else begin
    let trace = Obs.Tracer.current_trace () in
    let enqueued_at = Unix.gettimeofday () in
    enqueue t (make_task ?label ~trace ~enqueued_at f (Task.settle p))
  end;
  p

(* Work an awaiter may claim without stealing: its own deque (if it is
   a worker of this pool) and the injector. Deliberately not
   [t.pending > 0]: pending counts tasks sitting in *other* workers'
   deques too, and an awaiter that cannot steal them must park rather
   than spin on them. *)
let claimable t ~self =
  (self >= 0 && Deque.size t.deques.(self) > 0)
  ||
  (Mutex.lock t.inj_lock;
   let r = not (Queue.is_empty t.injector) in
   Mutex.unlock t.inj_lock;
   r)

let await t p =
  let self = match worker_ctx t with Some c -> c.windex | None -> -1 in
  let has_work () = claimable t ~self in
  let rec loop () =
    match Task.peek p with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> (
      (* Help — but only with work this domain may run without
         stealing: its own deque (newest first, typically the very
         subtasks being awaited) and the injector. Awaiters used to
         fall through to the steal tier, which was pathological under
         skewed subtree costs: the awaiter raced the victims for their
         cache-warm tasks, every failed CAS burnt both sides, and the
         awaited promise was not finished any sooner. Foreign deques
         are the worker main loops' business; an awaiter with nothing
         local parks until the promise settles. *)
      match next_task_local t ~self with
      | Some task ->
        task ();
        loop ()
      | None ->
        Task.park p ~has_work;
        loop ())
  in
  loop ()

let run_all_in ?label t thunks =
  if thunks = [] then []
  else if t.workers = [] then run_inline thunks
  else begin
    let arr = Array.of_list thunks in
    let n = Array.length arr in
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let done_p : unit Task.t = Task.create () in
    (* The submitter's ambient trace id travels with the batch: spans
       recorded on worker domains join the same logical trace. *)
    let trace = Obs.Tracer.current_trace () in
    let enqueued_at = Unix.gettimeofday () in
    let task i =
      make_task ?label ~trace ~enqueued_at
        (fun () -> arr.(i) ())
        (fun r ->
          results.(i) <- Some r;
          (* the decrement below publishes [results.(i)] to the awaiting
             submitter (SC atomics) *)
          if Atomic.fetch_and_add remaining (-1) = 1 then
            Task.fulfill done_p ())
    in
    enqueue_list t (List.init n task) n;
    await t done_p;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

let map_in ?label t f xs = run_all_in ?label t (List.map (fun x () -> f x) xs)

let run_all ?label ?jobs thunks =
  let j = resolve_jobs jobs in
  if j = 1 then run_inline thunks
  else
    match Domain.DLS.get dls_ctx with
    | Some c when c.wpool.workers <> [] && not (Atomic.get c.wpool.stop) ->
      (* nested on a pool worker: reuse the ambient scheduler rather
         than spawning a fresh domain set *)
      run_all_in ?label c.wpool thunks
    | _ -> with_pool ~jobs:j (fun t -> run_all_in ?label t thunks)

let map ?label ?jobs f xs = run_all ?label ?jobs (List.map (fun x () -> f x) xs)

let both ?jobs f g =
  let inline () =
    match run_inline [ (fun () -> `L (f ())); (fun () -> `R (g ())) ] with
    | [ `L a; `R b ] -> (a, b)
    | _ -> assert false
  in
  let on_pool pool =
    let pb = spawn pool g in
    let a = try Ok (inline_task f) with e -> Error e in
    let b = try Ok (await pool pb) with e -> Error e in
    match (a, b) with
    | Ok a, Ok b -> (a, b)
    | Error e, _ -> raise e
    | _, Error e -> raise e
  in
  let j = resolve_jobs jobs in
  if jobs = Some 1 then inline ()
  else
    match Domain.DLS.get dls_ctx with
    | Some c when c.wpool.workers <> [] && not (Atomic.get c.wpool.stop) ->
      (* already on a pool worker: schedule the sibling there — nested
         parallelism composes without oversubscription *)
      on_pool c.wpool
    | _ ->
      if j = 1 then inline ()
      else
        let pool = shared () in
        if pool.workers = [] then inline () else on_pool pool
