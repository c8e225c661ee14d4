(** Content-addressed memoisation of LP/ILP solves.

    Sweep pipelines tailor one ILP per (scenario, contender, deployment)
    cell; many cells produce {e mathematically identical} models (same
    counters, same tailoring), so each distinct model needs solving only
    once per process. The cache keys on an MD5 digest of the model's
    {e canonical structure} ({!Ilp.Canonical}) — rows scaled to coprime
    integers, variables renamed by structural fingerprint, terms and
    rows sorted — concatenated with the solver kind and its parameters,
    so [solve_lp] and [solve_ilp] (and different node-limit/slack
    settings) never collide, while sweep
    points that build the same program in a different order share one
    solve.

    What gets solved is the canonical {e representative}; outcomes are
    stored in its frame and every requester maps values back through its
    own renaming ({!Ilp.Canonical.restore_values}). The stored outcome
    is therefore independent of which structural twin arrived first, so
    cached results are deterministic at any parallel degree.

    Both solvers are deterministic, hence a cached solution is bitwise
    the solution a fresh solve would produce: routing solves through the
    cache cannot change any experiment output.

    The cache is shared by every domain in the process and is safe to use
    from {!Pool} workers. Lookups are {e single-flight}
    ({!Single_flight}): the first requester of a key solves it while
    concurrent requesters of the same key block until the outcome lands
    and then count as hits. Hit/miss totals are therefore a function of
    the request sequence alone — one miss per unique key, a hit for
    everything else — identical at any parallel degree, which is what
    keeps {!Obs.Metrics} counter snapshots jobs-invariant.

    {!Ilp.Branch_bound.Node_limit_exceeded} outcomes are cached too and
    re-raised on hits; any other exception releases the key. *)

open Numeric

type prepared
(** A model canonicalized once. The same [prepared] value serves any
    number of solver calls. *)

val prepare : Ilp.Model.t -> prepared
(** Canonicalizes the model ({!Ilp.Canonical.of_model}); that is pure,
    so a [prepared] value can be shared between domains. *)

val solve_lp : prepared -> Ilp.Solution.t
(** Cached {!Ilp.Simplex.solve} (the model's continuous relaxation). *)

val solve_ilp :
  ?node_limit:int -> ?slack:Q.t -> prepared -> Ilp.Solution.t
(** Cached {!Ilp.Branch_bound.solve}; defaults match it
    ([node_limit = 200_000], [slack = 0]).
    @raise Ilp.Branch_bound.Node_limit_exceeded as the underlying solver
    would, including on a cache hit of such an outcome. *)

type stats = {
  hits : int;  (** every request after the first of its key *)
  misses : int;  (** one per unique (tag, structure) key *)
  waited : int;
      (** how many of the hits blocked on an in-flight solve; a timing
          fact of the parallel schedule (0 at jobs=1) *)
}

val stats : unit -> stats
(** Process-wide counters since start or the last {!reset_stats}.
    [hits] and [misses] are a function of the request multiset, not
    arrival order, so they are jobs-invariant; [waited] is not (and is
    deliberately absent from the {!Obs.Metrics} counters). *)

val reset_stats : unit -> unit
(** Zeroes the hit/miss counters; cached solutions are kept. *)

val clear : unit -> unit
(** Drops every cached solution (the benchmark harness uses this to time
    cold runs); also zeroes the counters. *)

val size : unit -> int
(** Number of distinct cached solves. *)

val canonical_key : tag:string -> Ilp.Canonical.t -> string
(** The storage key (exposed for tests): MD5 of [tag] +
    {!Ilp.Canonical.structure}. *)

(** {1 Stable serialization and the persistent tier}

    The serve daemon persists settled outcomes on disk under their
    canonical key. Keys and entries have pinned, versioned formats with
    golden tests, so a refactor that would silently invalidate on-disk
    caches fails loudly. Outcomes are stored in the canonical
    representative's frame; rationals render via {!Q.to_string}, which
    is exact, so a reloaded solution is bitwise what a fresh solve would
    produce. *)

type outcome = Solved of Ilp.Solution.t | Node_limit
(** A settled cache entry: a solution, or the (deterministic) node-limit
    outcome, re-raised on replay. *)

val key_format_version : int
(** Bumped whenever {!canonical_key} changes what it hashes. A label
    only: it is not hashed into keys, whose bytes a golden test pins. *)

val entry_format_version : int
(** Bumped whenever {!entry_to_string} changes its rendering. *)

val key_to_string : string -> string
(** Identity (keys are already lowercase MD5 hex) — named for symmetry
    with {!key_of_string}. *)

val key_of_string : string -> string option
(** [Some key] iff the string is a well-formed cache key (32 lowercase
    hex characters); [None] otherwise. *)

val entry_to_string : ?cert:Ilp.Cert.t -> outcome -> string
(** One-line versioned JSON rendering of a settled outcome, with exact
    rational coordinates. Without [?cert] the rendering is the v1
    format, byte-identical to the pre-audit one (existing disk caches
    stay valid); with [?cert] it is v2, with the certificate embedded. *)

val entry_of_string : string -> outcome option
(** Inverse of {!entry_to_string} modulo the certificate (accepts both
    v1 and v2 entries, dropping a v2 certificate); [None] on any
    structural or version mismatch (the persistent tier then
    recomputes). *)

val entry_decode : string -> (outcome * Ilp.Cert.t option) option
(** Full inverse of {!entry_to_string}: outcome plus the embedded
    certificate if any. A v2 entry whose certificate fails to decode is
    rejected as a whole. *)

type store = {
  load : string -> string option;  (** key -> serialized entry *)
  save : string -> string -> unit;  (** key -> serialized entry *)
  reject : string -> unit;
      (** key failed its audit on load: quarantine it (the persistent
          tier treats this like a checksum corruption) *)
}
(** A persistent second tier behind the in-memory table. [load] is
    consulted on a memory miss (inside the single-flight reservation, so
    concurrent requesters still solve/load once); [save] is called after
    every freshly solved outcome settles. All three are best-effort:
    exceptions are swallowed and corrupt payloads ignored. *)

val set_store : store option -> unit
(** Installs (or removes, with [None]) the process-wide backing store.
    Memory-tier hit/miss accounting is unchanged by a store: a store hit
    still counts as a memory miss, so the jobs-invariant counters keep
    their meaning. *)

(** {1 Audit mode}

    With {!set_audit}[ true], every fresh solve goes through the
    certified solver entry points ({!Ilp.Simplex.solve_certified},
    {!Ilp.Branch_bound.solve_certified}) and its answer is checked by
    {!Audit.Checker} before it settles; certificates are persisted with
    entries, and a disk-loaded entry is re-audited before being served —
    a failed audit quarantines the entry (via [store.reject]) and
    recomputes through the certified path, mirroring the checksum
    handling one tier below. Auditing happens inside the single-flight
    reservation, so each unique key is audited exactly once per process
    and the [audit.{verified,failed}] counters are
    jobs-invariant. *)

val set_audit : bool -> unit
(** Enables/disables audit mode process-wide (default: off — zero
    overhead for existing callers). *)

val audit_enabled : unit -> bool

val audit_failures : unit -> (string * string) list
(** Keys whose {e freshly computed} answer failed its own audit, with
    the checker's reason — evidence of a solver bug. Sorted; cleared by
    {!clear}. Quarantined-then-recomputed disk entries are not listed
    (they were recovered from). *)
