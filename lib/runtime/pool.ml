(* Domain pool: one FIFO queue under one mutex, served by [jobs - 1]
   worker domains plus every caller waiting on a batch, which helps by
   taking tasks from the same queue. One condition variable carries all
   wake-ups: a task was queued, a task finished, or the pool stopped.
   Determinism comes from batches indexing a results array by input
   position — scheduling can permute execution, never results. *)

type task = unit -> unit

let tasks_counter = Atomic.make 0
let tasks_run () = Atomic.get tasks_counter

(* [pool.tasks] mirrors [tasks_counter] into the metrics registry and is
   jobs-invariant like it: one increment per task executed, regardless
   of which domain ran it. *)
let m_tasks = Obs.Metrics.counter "pool.tasks"

let h_task =
  Obs.Metrics.histogram "pool.task_seconds" ~buckets:Obs.Metrics.latency_buckets

let h_wait =
  Obs.Metrics.histogram "pool.queue_wait_seconds"
    ~buckets:Obs.Metrics.latency_buckets

(* OCaml 5.1's domain limit on 64-bit ([Max_domains] in caml/domain.h) *)
let max_jobs = 128

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some (min n max_jobs)
  | _ -> None

let default_jobs () =
  match Option.bind (Sys.getenv_opt "AURIX_JOBS") parse_jobs with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let resolve_jobs = function
  | None -> default_jobs ()
  | Some j ->
    if j < 1 || j > max_jobs then
      invalid_arg (Printf.sprintf "Pool: jobs must be in 1..%d" max_jobs);
    j

type t = {
  jobs : int;
  queue : task Queue.t; (* guarded by [lock] *)
  lock : Mutex.t;
  changed : Condition.t; (* a task was queued or finished, or [stop] set *)
  mutable stop : bool; (* guarded by [lock] *)
  mutable workers : unit Domain.t list;
}

let enqueue t tasks =
  Mutex.lock t.lock;
  List.iter (fun task -> Queue.add task t.queue) tasks;
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

(* Run a claimed task, then wake every sleeper under the lock. A waiter
   whose condition the task made true rechecks it under the same lock
   before sleeping, so it either sees the change or gets this
   broadcast: no wake-up is lost. *)
let run_task t task =
  task ();
  Mutex.lock t.lock;
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

let help_until t cond =
  let rec loop () =
    Mutex.lock t.lock;
    if cond () then Mutex.unlock t.lock
    else
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.lock;
        run_task t task;
        loop ()
      | None ->
        Condition.wait t.changed t.lock;
        Mutex.unlock t.lock;
        loop ()
  in
  loop ()

(* A worker is a waiter whose condition is "stopped and drained". *)
let worker t = help_until t (fun () -> t.stop && Queue.is_empty t.queue)

let create ?jobs () =
  let jobs = resolve_jobs jobs in
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      changed = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.changed;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

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
   trace id (spans recorded on worker domains join the same logical
   trace), and a [pool.task] span carrying the batch label. The outcome
   lands in [settle]. *)
let make_task ?label f settle =
  let trace = Obs.Tracer.current_trace () in
  let enqueued_at = Unix.gettimeofday () in
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

let run_all_in ?label t thunks =
  if thunks = [] then []
  else if t.workers = [] then run_inline thunks
  else begin
    let results = Array.make (List.length thunks) None in
    let remaining = Atomic.make (Array.length results) in
    enqueue t
      (List.mapi
         (fun i f ->
            make_task ?label f (fun r ->
                results.(i) <- Some r;
                (* publishes [results.(i)] to the helping submitter *)
                Atomic.decr remaining))
         thunks);
    help_until t (fun () -> Atomic.get remaining = 0);
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
  else with_pool ~jobs:j (fun t -> run_all_in ?label t thunks)

let map ?label ?jobs f xs = run_all ?label ?jobs (List.map (fun x () -> f x) xs)
