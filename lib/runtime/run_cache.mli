(** Content-addressed memoization of whole simulator runs.

    Drop-in wrappers for {!Tcsim.Machine.run} / [run_isolation] that key
    the result by a structural digest of everything the outcome depends
    on: the resolved kernel, latency table, per-core cache geometries,
    priorities, restart/max_cycles/trace flags, and the analysis +
    contender programs by {!Tcsim.Program.digest} (names are irrelevant
    to timing) in their literal order (stepping order is visible through same-cycle
    arbitration). Ablations and the portability sweep re-simulate
    identical co-runs dozens of times; those become cache hits.

    Single-flight ({!Single_flight}): concurrent requests for one key
    run the simulation once, so hit/miss totals depend only on the
    request multiset — identical at any parallel degree — and the
    [run_cache.hits] / [run_cache.misses] Obs counters stay inside the
    deterministic snapshot. A {!Tcsim.Machine.Cycle_limit_exceeded}
    outcome is cached too (it is deterministic for the key) and
    re-raised on hits; other exceptions release the key. *)

type outcome = Finished of Tcsim.Machine.run_result | Limit of int
(** A settled cache entry: either the simulation's result or the
    (deterministic) cycle-limit outcome, re-raised on replay. *)

type stats = { hits : int; misses : int; waited : int }

val run :
  ?config:Tcsim.Machine.config ->
  ?max_cycles:int ->
  ?restart_contenders:bool ->
  ?priorities:int array ->
  ?trace:bool ->
  ?kernel:Tcsim.Machine.kernel ->
  analysis:Tcsim.Machine.task ->
  ?contenders:Tcsim.Machine.task list ->
  unit ->
  Tcsim.Machine.run_result
(** Same contract as {!Tcsim.Machine.run}; the returned record may be
    shared with other callers (it is immutable). *)

val run_isolation :
  ?config:Tcsim.Machine.config ->
  ?max_cycles:int ->
  ?kernel:Tcsim.Machine.kernel ->
  ?core:int ->
  Tcsim.Program.t ->
  Tcsim.Machine.run_result
(** Same contract as {!Tcsim.Machine.run_isolation}. *)

val fingerprint :
  config:Tcsim.Machine.config ->
  max_cycles:int ->
  restart_contenders:bool ->
  priorities:int array option ->
  trace:bool ->
  kernel:Tcsim.Machine.kernel ->
  analysis:Tcsim.Machine.task ->
  contenders:Tcsim.Machine.task list ->
  string
(** The cache key (hex digest) for a fully resolved request — exposed for
    tests asserting what does and does not share an entry. It hashes
    {!key_format_version}, the header fields, and one core number and
    {!Tcsim.Program.digest} per task, so it costs O(tasks), not
    O(program size). *)

val stats : unit -> stats
(** Process-lifetime totals. [waited] counts hits that blocked on another
    domain's in-flight simulation — a parallel-timing fact (always 0 at
    jobs=1), excluded from the jobs-invariant counters. *)

val reset_stats : unit -> unit

val size : unit -> int
(** Settled entries currently cached. *)

val clear : unit -> unit
(** Drop all entries, reset stats and drop the simulator's retained
    scripts ({!Tcsim.Machine.clear_scripts}) — for cold-cache
    benchmarking. *)

(** {1 Stable serialization and the persistent tier}

    The serve daemon persists settled outcomes on disk under their
    fingerprint. Keys and entries have pinned, versioned formats: a
    golden test asserts sample digests and round-trips, so a refactor
    that would silently invalidate on-disk caches fails loudly. *)

val key_format_version : int
(** Bumped whenever {!fingerprint} changes what it hashes, and hashed
    into every key as its first field. Now 2: keys hash program digests.
    Entries stored under v1 keys are never looked up again, so they read
    as misses and are recomputed. *)

val entry_format_version : int
(** Bumped whenever {!entry_to_string} changes its rendering. *)

val key_to_string : string -> string
(** Identity (keys are already lowercase MD5 hex) — named for symmetry
    with {!key_of_string}. *)

val key_of_string : string -> string option
(** [Some key] iff the string is a well-formed cache key (32 lowercase
    hex characters); [None] otherwise. *)

val entry_to_string : outcome -> string
(** One-line versioned JSON rendering of a settled outcome, including
    counters, ground-truth profiles, restart counts and the trace. *)

val entry_of_string : string -> outcome option
(** Inverse of {!entry_to_string}; [None] on any structural or version
    mismatch (the persistent tier then recomputes). *)

type store = {
  load : string -> string option;  (** key -> serialized entry *)
  save : string -> string -> unit;  (** key -> serialized entry *)
}
(** A persistent second tier behind the in-memory table. [load] is
    consulted on a memory miss (inside the single-flight reservation, so
    concurrent requesters still compute/load once); [save] is called
    after every freshly simulated outcome settles. Both are best-effort:
    exceptions are swallowed and corrupt payloads ignored. *)

val set_store : store option -> unit
(** Installs (or removes, with [None]) the process-wide backing store.
    Memory-tier hit/miss accounting is unchanged by a store: a store hit
    still counts as a memory miss, so the jobs-invariant counters keep
    their meaning. *)
