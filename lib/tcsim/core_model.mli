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

    A loop instance is snapshotted (canonical cache state and cycle
    offset) once at least as many instructions as the caches have
    lines have run since it began or since its last snapshot: every
    k = ⌈lines / iteration length⌉ iterations. When k iterations leave
    the state as they found it, they are compiled once: every later
    whole block of k iterations repeats their segments, and the fewer
    than k left over compile as usual (loop replay, DESIGN.md §7).
    Replayed segments keep their segment indices but are never stored;
    a read maps a replayed index to the stored segment it repeats. The
    timing-tier counter [tcsim.script.replayed_segments] counts them. *)
module Script : sig
  type t

  val create : config -> Program.t -> t
  (** A fresh script for this (config, program) pair; segments compile
      on demand as readers reach them.
      @raise Invalid_argument on an invalid cache geometry. *)

  val footprint : t -> int
  (** Segment slots the script holds: its stored (compiled, not
      replayed) segments rounded up to whole chunks, and at least one
      chunk. *)

  val regions : t -> (int * int * int) list
  (** The replayed regions detected so far, in order, as
      [(first, period, stop)]: segments [[first + period, stop)] repeat
      the segment [period] earlier, and a period spans k iterations of
      its loop. A region may lie inside an outer one's first period. *)
end

(** {1 The crossbar}

    The Shared Resource Interconnect (SRI). Each slave interface (dfl,
    pf0, pf1, lmu) arbitrates independently: transactions to distinct
    targets proceed in parallel; same-target requests are serialised by
    priority class and, within a class, by round-robin over the masters
    — so in the paper's same-class setting a request waits for at most
    one in-flight request per contending master (Section 2). Arbitration
    is non-preemptive: a higher-priority request still waits for the
    transaction in service.

    Service time: a transaction occupies its target for [lmax(t,o)]
    cycles, or [lmin(t,o)] when it streams from the flash interface's
    256-bit prefetch line buffer (same or sequential-next line), or the
    LMU dirty-miss latency when a cacheable LMU fill carries a folded
    dirty write-back. The constants come from the {!Platform.Latency}
    table, so the simulator and the analytical models share one timing
    source. Per-run totals go to the [sri.<target>.busy_cycles] and
    [.wait_cycles] gauges and the [.grants] counter. *)

type sri

val create_sri :
  latency:Platform.Latency.t -> priorities:int array option -> trace:bool -> ncores:int -> sri
(** [priorities] maps each master to its SRI priority class — {e lower is
    more urgent}; [None] puts all masters in one class (the paper's
    configuration). The caller checks the array's length. [trace]
    records every transaction. *)

val profile : sri -> core:int -> Platform.Access_profile.t
(** Ground-truth per-target access counts served so far for a master. *)

val sri_trace : sri -> Trace.t
(** Recorded transactions in completion order; empty unless tracing. *)

(** {1 Cores} *)

type role =
  | Analysis  (** the run ends when its program does *)
  | Restarting  (** a periodic co-runner: restarts when it finishes *)
  | Once  (** a co-runner that stops when it finishes *)

type t

val create : Script.t -> sri:sri -> core_id:int -> role -> t

(** {1 The kernel} *)

exception Cycle_limit_exceeded of int

val run_kernel :
  stepped:bool ->
  skip:bool ->
  max_cycles:int ->
  sri:sri ->
  analysis:t ->
  contenders:t array ->
  work:int array ->
  unit
(** Runs the cores on [sri] until the analysis core's program ends, then
    settles the contenders at that cycle. The event kernel wakes only at
    the cycles where something shared happens — an SRI request issues,
    a queued request is granted, the analysis task ends — and, once
    nothing is queued and no contender will issue again, steps the
    analysis core alone; with [skip] (untraced runs) it applies whole
    periods of a replayed loop region at once there (DESIGN.md §7).
    [stepped] visits every cycle instead; both give identical results.
    The [sri.*], [tcsim.events] and [tcsim.skipped_cycles] totals are
    flushed, and the event and skipped-event counts written to
    [work.(0)] and [work.(1)], also when the run raises.
    @raise Cycle_limit_exceeded at the first event past [max_cycles].
    @raise Invalid_argument when a program reaches an unmapped address,
    a store to program flash or a data-flash fetch. *)

val finish_cycle : t -> int
(** Cycle at which the analysis program completed.
    @raise Failure if not yet finished. *)

val counters : t -> Platform.Counters.t
(** Final once {!run_kernel} has returned. *)

val restarts : t -> int
val core_id : t -> int
