(** Deterministic domain pool for experiment cells.

    A pool owns [jobs - 1] OCaml 5 worker domains serving one
    mutex-guarded FIFO queue. A caller waiting on its own batch
    {e helps}: it takes tasks from the same queue until its batch is
    done, so it is the [jobs]-th executor, and a task may itself wait
    on a batch of the pool it runs in without deadlock.

    {b Determinism.} Scheduling permutes {e execution} order only:
    {!run_all}/{!map} index a results array by input position and the
    first exception in input order is re-raised. A parallel run is
    structurally indistinguishable from the sequential one — the
    experiment suites assert byte-identical outputs at jobs 1/2/4/8.

    Concurrency degree resolution, in decreasing priority:
    + the [?jobs] argument of the entry points below, in
      [1..]{!max_jobs};
    + the [AURIX_JOBS] environment variable (a positive integer);
    + [Domain.recommended_domain_count ()].

    With an effective degree of 1 no domain is spawned at all: batches
    run inline on the caller, which is byte-for-byte the sequential
    path. *)

type t
(** A running pool. *)

val max_jobs : int
(** 128: the most domains the OCaml 5.1 runtime runs at once on 64-bit. *)

val default_jobs : unit -> int
(** [AURIX_JOBS] when set to a positive integer (clamped to
    [1..]{!max_jobs}), otherwise [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawns [jobs - 1 >= 0] worker domains. Default [jobs]:
    {!default_jobs}.
    @raise Invalid_argument on [jobs < 1] or [jobs > max_jobs], before
    any domain is spawned. *)

val jobs : t -> int
(** The configured concurrency degree. *)

val shutdown : t -> unit
(** Lets the workers drain the queue, then joins their domains. Must
    only be called when no batch is in flight; idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val run_all_in : ?label:string -> t -> (unit -> 'a) list -> 'a list
(** Runs every thunk exactly once and returns their results in input
    order. If tasks raise, the first exception in {e input} order (not
    completion order) is re-raised — deterministic regardless of
    interleaving. Under a parallel pool every task still runs to
    completion first; inline ([jobs = 1]) execution stops at the raising
    task, exactly like the sequential code it replaces. [label] tags
    each task's [pool.task] span ([batch] attribute). Safe to call from
    inside a task of the same pool. *)

val map_in : ?label:string -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_in pool f xs] = [run_all_in pool (List.map (fun x () -> f x) xs)]. *)

val run_all : ?label:string -> ?jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot: [with_pool ?jobs (fun p -> run_all_in p thunks)], inline
    without a pool at degree 1. [jobs] is checked as by {!create}. *)

val map : ?label:string -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot parallel map preserving input order. *)

val tasks_run : unit -> int
(** Process-wide count of pool tasks executed (inline or on a worker);
    monotonic. The tests read it to check that every task runs once. *)
