(** The Shared Resource Interconnect (SRI) crossbar.

    Each slave interface (dfl, pf0, pf1, lmu) arbitrates independently:
    transactions to distinct targets proceed in parallel; same-target
    requests are serialised by priority class and, within a class, by
    round-robin over the masters — so in the paper's same-class setting a
    request waits for at most one in-flight request per contending master
    (Section 2). Arbitration is non-preemptive: a higher-priority request
    still waits for the transaction in service.

    Service time: a transaction occupies its target for [lmax(t,o)]
    cycles, or [lmin(t,o)] when it streams from the flash interface's
    256-bit prefetch line buffer (same or sequential-next line), or the
    LMU dirty-miss latency when a cacheable LMU fill carries a folded
    dirty write-back. The constants come from the {!Platform.Latency}
    table, so the simulator and the analytical models share one timing
    source.

    State is ints only. A master blocks until its transaction completes,
    so it has at most one outstanding: an interface's queue is the set of
    masters whose outstanding request targets it, and the request itself
    (line, op, fold flag, issue cycle) lives in per-master slots.
    Targets are indexed in {!Platform.Target.all} order, ops as
    [0] = code, [1] = data. *)

open Platform

type t

val create :
  ?latency:Latency.t ->
  ?priorities:int array ->
  ?trace:bool ->
  ncores:int ->
  unit ->
  t
(** [priorities] maps each master to its SRI priority class — {e lower is
    more urgent}; default: all masters in one class (the paper's
    configuration). [trace] records every transaction (default off).
    @raise Invalid_argument on a priority array length mismatch. *)

val request :
  t -> core:int -> target:int -> op:int -> line:int -> folded:bool -> cycle:int -> unit
(** Enqueues [core]'s transaction on the [target]-th interface; it is
    granted within the same cycle if the target is idle. [folded] marks
    a cacheable LMU fill whose victim write-back is folded into the same
    transaction (the bracketed 21-cycle latency of Table 2). The caller
    guarantees an admissible (target, op) pair and that [core] has no
    other transaction waiting for a grant. *)

val serve_alone :
  t ->
  core:int ->
  target:int ->
  op:int ->
  line:int ->
  folded:bool ->
  cycle:int ->
  limit:int ->
  int
(** {!request} for a master that issues while no other request is
    queued and no other master will issue again: it is granted at
    [max cycle busy_until] — later only while another master's last
    transaction is still in service — with the same bookkeeping
    (profile, trace, metrics) as an arbitrated grant. Returns the grant
    cycle; a grant past [limit] is not made, and the request stays
    queued. *)

(** {2 Skipping periods alone}

    For a master alone on the crossbar ({!serve_alone}), the state its
    future depends on, and the totals its grants add to, as ints (used
    by {!Core_model.Solo}). *)

val solo_state_words : int
val solo_total_words : int

val solo_snapshot :
  t -> core:int -> cycle:int -> int array -> state:int -> totals:int -> unit
(** Writes the state relative to [cycle] — per interface, how far its
    [busy_until] lies past [cycle] and the line in its buffer — at
    [state], and the totals (per interface [busy_until], busy, wait and
    grant totals, then [core]'s served counts) at [totals]. *)

val solo_advance :
  t -> core:int -> int array -> totals:int -> times:int -> cycles:int -> unit
(** Applies [times] more periods like the one since the totals at
    [totals] were taken: every total grows by [times] × its change, and
    [core]'s transaction times and the [busy_until] of each interface
    the period used shift by [times × cycles]. *)

val done_at : t -> core:int -> int
(** Completion cycle of [core]'s latest request once granted; [max_int]
    while it waits. *)

val hide : t -> target:int -> op:int -> int
(** [lmin - cs] for the pair: the part of an observed transaction the
    calibrated stall counters do not see. *)

val step : t -> cycle:int -> unit
(** Grants pending requests on every target that is idle at [cycle].
    Grants only fire at cycles reported by {!next_grant_at} or at
    request time, so a kernel need only call this at those cycles. *)

val next_grant_at : t -> int
(** Earliest cycle at which a queued request can be granted — the minimum
    [busy_until] over interfaces with a non-empty queue — or [max_int]
    when nothing is queued. A free interface never carries a queue
    between cycles (requests to an idle target are granted immediately
    by {!request}). *)

val profile : t -> core:int -> Access_profile.t
(** Ground-truth per-target access counts served so far for a master. *)

val trace : t -> Trace.t
(** Recorded transactions in completion order; empty when tracing is
    disabled. *)

val flush_metrics : t -> unit
(** Adds this crossbar's per-target busy/wait/grant totals to the
    [sri.<target>.*] metrics and zeroes them. *)
