(** Deterministic work-stealing domain pool for experiment cells and DAGs.

    A pool owns [jobs - 1] OCaml 5 worker domains. Each worker has its
    own Chase–Lev-style deque — LIFO for the owner (dependents run
    cache-warm right after their producers), FIFO for thieves. External
    submissions (batches, {!spawn} from non-worker threads) land in a
    queue-of-queues injector drained round-robin, so concurrent
    submitters — say the serve daemon and an experiment sweep sharing
    the {!shared} pool — cannot head-of-line block each other. Idle
    workers steal from seeded pseudo-random victims.

    {b Determinism.} Scheduling (and stealing) permutes {e execution}
    order only: {!run_all}/{!map} index a results array by input
    position, promises are settled by task identity, and the first
    exception in input order is re-raised. A parallel run is
    structurally indistinguishable from the sequential one — the
    experiment suites assert byte-identical outputs at jobs 1/4/8.

    Concurrency degree resolution, in decreasing priority:
    + the [?jobs] argument of the entry points below;
    + the [AURIX_JOBS] environment variable (a positive integer);
    + [Domain.recommended_domain_count ()].

    With an effective degree of 1 no domain is spawned at all: tasks run
    inline on the caller, which is byte-for-byte the sequential path.

    Unlike the earlier single-FIFO pool, tasks {e may} block on the pool
    they run in: {!await} (and the batch entry points, which await
    internally) {e help} — they execute other ready tasks instead of
    blocking the domain — so nested {!run_all}/{!both}/DAG nodes compose
    without deadlock or domain oversubscription. *)

type t
(** A running pool. *)

(** Lightweight promises. A task spawned on a pool settles one; any
    thread can {!Task.fulfill}/{!Task.fail} a hand-made one. Awaiting
    happens through {!val-await}, which needs the pool in order to help. *)
module Task : sig
  type 'a t

  val create : unit -> 'a t
  (** A pending promise. *)

  val fulfill : 'a t -> 'a -> unit
  (** @raise Invalid_argument if already settled. *)

  val fail : 'a t -> exn -> unit
  (** Settle with an exception; {!val-await} re-raises it.
      @raise Invalid_argument if already settled. *)

  val peek : 'a t -> ('a, exn) result option
  (** Non-blocking: [None] while pending. *)
end

val default_jobs : unit -> int
(** [AURIX_JOBS] when set to a positive integer (clamped to [1..128]),
    otherwise [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawns [jobs - 1 >= 0] worker domains plus the caller-inline path for
    [jobs = 1]. Default [jobs]: {!default_jobs}.
    @raise Invalid_argument on [jobs < 1]. *)

val jobs : t -> int
(** The configured concurrency degree. *)

val shutdown : t -> unit
(** Stops the workers and joins their domains. Must only be called when no
    batch or {!spawn} is in flight; idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val shared : unit -> t
(** The process-wide pool, created on first use and sized by
    {!default_jobs} at that moment. Used by the serve daemon (when not
    pinned to an explicit [--jobs]) and by nested {!both} calls from
    non-worker threads, so independent subsystems share one set of
    domains. Never {!shutdown} it — an [at_exit] hook joins its workers
    at process end. *)

val spawn : ?label:string -> t -> (unit -> 'a) -> 'a Task.t
(** Schedule one task; the promise settles with its result or exception.
    From a worker of [t] the task goes LIFO onto that worker's own
    deque; otherwise it is injected. On a sequential pool ([jobs = 1])
    the thunk runs eagerly inline before [spawn] returns. [label] tags
    the task's [pool.task] span ([batch] attribute). *)

val await : t -> 'a Task.t -> 'a
(** Block until settled, re-raising a {!Task.fail}ure. While the promise
    is pending the caller {e helps} with work it can claim without
    stealing: its own deque (newest first — typically the awaited
    subtasks themselves) and the injector. It never steals from other
    workers' deques — an awaiter racing the victims for their cache-warm
    tasks under skewed subtree costs was pure churn — and parks until
    the promise settles once nothing local is claimable. Safe to call
    from inside a pool task. *)

val run_all_in : ?label:string -> t -> (unit -> 'a) list -> 'a list
(** Runs every thunk exactly once and returns their results in input
    order. If tasks raise, the first exception in {e input} order (not
    completion order) is re-raised — deterministic regardless of
    interleaving. Under a parallel pool every task still runs to
    completion first; inline ([jobs = 1]) execution stops at the raising
    task, exactly like the sequential code it replaces. *)

val map_in : ?label:string -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_in pool f xs] = [run_all_in pool (List.map (fun x () -> f x) xs)]. *)

val run_all : ?label:string -> ?jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot: [with_pool ?jobs (fun p -> run_all_in p thunks)] — except
    when called from a pool worker with an effective degree above 1,
    where the ambient pool is reused instead of spawning fresh domains. *)

val map : ?label:string -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot parallel map preserving input order. *)

val both : ?jobs:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Runs the two thunks concurrently through the scheduler — on the
    ambient pool when called from a pool worker, on the {!shared} pool
    otherwise — never on a freshly spawned domain. With an effective
    degree of 1 (or [~jobs:1]) they run inline left-to-right. If both
    raise, the left exception wins. *)

val inline_task : (unit -> 'a) -> 'a
(** Run one thunk on the caller with task accounting (task counter and
    latency histogram) — the sequential path's unit of execution, used
    by {!Dag} so task totals stay jobs-invariant. *)

val tasks_run : unit -> int
(** Process-wide count of pool tasks executed (inline or on a worker);
    monotonic, read by {!Telemetry}. *)
