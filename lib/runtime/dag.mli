(** Deterministic experiment DAGs on top of {!Pool}.

    Experiments declare their cells as nodes with explicit dependencies
    (simulate → measure → build-model → solve → audit per row); the
    scheduler then overlaps {e independent} rows across phases instead
    of running phase-locked batches — a worker finishing a row's
    isolation simulation starts that row's model build immediately,
    while other rows are still simulating.

    Build once, run once: {!node} may only depend on already-created
    nodes, so node ids form a topological order by construction (no
    cycle check needed). {!run} executes {e every} node exactly once —
    a node whose dependency failed is skip-marked, not executed — and
    results are read back by node identity with {!get}.

    {b Determinism.} Results live in per-node cells; when nodes fail,
    {!run} re-raises the failure with the {e smallest node id} after the
    whole graph has quiesced — a pure function of the graph, never of
    the schedule. Outputs, exceptions and the [runtime.dag.nodes]
    counter are identical at every jobs count. *)

type t
(** A dag under construction (or already run). *)

type 'a node
(** A node whose thunk returns ['a]. *)

type dep
(** An untyped dependency edge, made with {!val-dep}. *)

exception Dependency_failed of { node : string; dep : string }
(** Raised by {!get} on a node skipped because dependency [dep] failed
    (or was itself skipped). *)

val create : unit -> t

val node : ?label:string -> t -> deps:dep list -> (unit -> 'a) -> 'a node
(** Adds a node running [f] once all [deps] have succeeded. Duplicate
    deps are collapsed. [label] names the node's [pool.task] span and
    appears in {!exception-Dependency_failed}; default ["node<i>"].
    @raise Invalid_argument after {!run}, or on a dep from another dag. *)

val dep : 'a node -> dep

val run : ?jobs:int -> t -> unit
(** Executes the dag on a fresh pool of [jobs] (default
    {!Pool.default_jobs}; degree 1 executes nodes inline in id order —
    the sequential path). Every node runs or is skip-marked before
    [run] returns; the first failure in node-id order is re-raised.
    @raise Invalid_argument on a second [run] or [jobs < 1]. *)

val get : 'a node -> 'a
(** The node's result after {!run}. Re-raises the node's own failure;
    raises {!exception-Dependency_failed} for skipped nodes.
    @raise Invalid_argument before {!run}. *)

val size : t -> int
(** Number of nodes declared so far. *)

val label : 'a node -> string
