(** A simulated TriCore master: executes a {!Program}, drives caches and
    the SRI, and maintains the debug counters of {!Platform.Counters}.

    Timing model (one cycle at a time, as the hardware runs):
    - an instruction whose fetch and data access stay core-local costs its
      execution cycles only ([Compute n] = n cycles, memory ops 1 cycle);
    - an instruction-cache miss or non-cacheable SRI fetch blocks the core
      until the SRI transaction completes, accruing PMEM_STALL;
    - a data-cache miss / non-cacheable SRI data access likewise accrues
      DMEM_STALL; a dirty victim first issues its write-back (folded into a
      single long transaction when both victim and fill live in the LMU).

    Stall accounting: a transaction observed end-to-end for [d] cycles adds
    [d - (lmin - cs)] stall cycles, where [lmin] and [cs] are the Table 2
    constants for its (target, op). In the best (streaming) case [d = lmin]
    and the contribution is exactly [cs] — the calibration floor the
    MBTA access bounds (Eq. 4) rely on; queueing delay is exposed in full.

    The core only acts at SRI transactions: everything between two of
    them is a timing-independent silent run whose length the compiled
    {!Script} records, so a core wakes when it issues a request and when
    its program ends (DESIGN.md §7). *)

type kind = P16 | E16  (** TC1.6P (I$ + D$) or TC1.6E (I$ only, no D$) *)

type config = {
  kind : kind;
  icache : Cache.geometry option;  (** [None] disables the I-cache *)
  dcache : Cache.geometry option;  (** ignored for {!E16} *)
}

val p16_config : config
val e16_config : config

(** Compiled instruction scripts: the timing-independent part of a
    core's execution. Which instruction runs next, how its fetch and data
    access classify and whether each private-cache access hits depend
    only on the (program, core config) pair, so a script compiles them,
    lazily and across restart passes with warm caches, into segments
    [silent run of k cycles → SRI transaction] (or pass end, or the
    instruction that raises). Any number of cores read one script from
    private cursors, but a script is single-threaded: reading it
    compiles it, so only one domain or systhread may hold it at a time.
    {!Machine.run} lends scripts out of a memo on exactly these terms.

    A loop iteration that leaves the canonical cache state and the cycle
    offset as it found them is compiled once: the remaining iterations
    are emitted as copies of its segments (loop replay, DESIGN.md §7),
    counted by the timing-tier counter [tcsim.script.replayed_segments]. *)
module Script : sig
  type t

  val create : config -> Program.t -> t
  (** A fresh script for this (config, program) pair; segments compile
      on demand as readers reach them.
      @raise Invalid_argument on an invalid cache geometry. *)

  val footprint : t -> int
  (** Segment slots the script holds: its compiled segments rounded up
      to whole chunks, and at least one chunk. *)
end

type role =
  | Analysis  (** the run ends when its program does *)
  | Restarting  (** a periodic co-runner: restarts when it finishes *)
  | Once  (** a co-runner that stops when it finishes *)

type t

val create : Script.t -> sri:Sri.t -> core_id:int -> role -> t

val wake : t -> int
(** Cycle of the core's next event — issuing its next SRI request, or
    its program's end or failure for the analysis core — or [max_int]
    while it waits for a grant or has nothing left to do. *)

val fire : t -> cycle:int -> unit
(** Performs the event due at [cycle = wake t].
    @raise Invalid_argument when the program reaches an unmapped address,
    a store to program flash or a data-flash fetch. *)

val fire_alone : t -> cycle:int -> limit:int -> int
(** {!fire} for the analysis core once it is alone on the SRI — nothing
    queued, and no contender will issue again: its request is served by
    {!Sri.serve_alone} without arbitration. Returns the grant cycle
    ([cycle] itself when the event was no issue); a grant past [limit] is
    not made.
    @raise Invalid_argument as {!fire} does. *)

(** Skipping whole loop periods while the analysis core is alone on the
    SRI (DESIGN.md §7). At a boundary of a replayed region of its script
    the core snapshots its registers and the crossbar's interface state,
    relative to the cycle of the event it is about to fire; when the
    state is equal at the next boundary, the period in between repeats
    until the region ends, and whole periods are applied at once. Every
    result, counter and total is the one stepping gives. *)
module Solo : sig
  type core := t
  type t

  val create : core -> t
  (** Preallocated buffers for the analysis core; use only while it is
      alone ({!fire_alone}) and the crossbar is not tracing. *)

  val due : t -> bool
  (** The core's cursor has reached a segment worth a {!check}, or its
      script has detected new regions. Cheap: call before every event. *)

  val check : t -> events:int -> limit:int -> int
  (** Call with the core awake ({!wake}) before its next event, given the
      kernel's event count so far. Returns the number [m] of whole
      periods skipped — the core and the crossbar are then [m] periods
      on, and the kernel adds [m × period_events] events and
      [m × period_cycles] to its clock. [m] is capped so that the first
      event after the skip is at or before [limit]. *)

  val period_events : t -> int
  val period_cycles : t -> int
  (** Of the period the latest skip applied. *)
end

val finished : t -> bool
(** The analysis core's program has ended. *)

val finish_cycle : t -> int
(** Cycle at which the analysis program completed.
    @raise Failure if not yet finished. *)

val settle : t -> cycle:int -> unit
(** Accounts a co-runner up to and including [cycle], the cycle the
    analysis task finished, after every event up to it has fired. *)

val counters : t -> Platform.Counters.t
(** Final once the core has finished or been settled. *)

val restarts : t -> int
val core_id : t -> int
