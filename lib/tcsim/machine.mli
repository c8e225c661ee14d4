(** Whole-platform harness: three TriCore masters sharing one SRI.

    Replicates the paper's measurement protocol: run a task in isolation to
    collect its debug counters (Section 4.2 "we first executed the
    application and each contender in isolation"), or co-run the task under
    analysis against contenders — periodic co-runners restart when they
    finish — to observe actual multicore slowdown. *)

open Platform

type config = {
  latency : Latency.t;
  cores : Core_model.config array;  (** one entry per core *)
}

val default_config : config
(** TC277: cores 0 and 1 are TC1.6P, core 2 is the TC1.6E. *)

type task = { program : Program.t; core : int }

type core_result = {
  counters : Counters.t;
  profile : Access_profile.t;  (** ground-truth SRI requests served *)
  restarts : int;
}

type run_result = {
  cycles : int;  (** cycles until the analysis task completed *)
  analysis : core_result;
  contenders : (int * core_result) list;  (** per contender core *)
  trace : Trace.t;  (** SRI transactions; empty unless tracing was on *)
}

exception Cycle_limit_exceeded of int

type kernel = [ `Stepped | `Event ]
(** [`Event] wakes only at the cycles where something shared happens —
    an SRI request issues, a queued request is granted, the analysis
    task ends — and derives everything in between from the compiled
    scripts ({!Core_model.Script}). [`Stepped] drives the same core
    model through every cycle; both give identical results. *)

val kernel_of_string : string -> kernel option
(** Recognises ["stepped"] and ["event"]. *)

val kernel_to_string : kernel -> string

val default_kernel : unit -> kernel
(** The kernel used when {!run} gets no [?kernel]: [`Event], unless the
    [AURIX_KERNEL] environment variable says otherwise, or
    {!set_default_kernel} was called (the CLI's [--kernel] flag). *)

val set_default_kernel : kernel -> unit

val default_max_cycles : int
(** The default runaway guard, [200_000_000]. *)

val run :
  ?config:config ->
  ?max_cycles:int ->
  ?restart_contenders:bool ->
  ?priorities:int array ->
  ?trace:bool ->
  ?kernel:kernel ->
  analysis:task ->
  ?contenders:task list ->
  unit ->
  run_result
(** Simulates until the analysis task finishes. Contenders that finish
    earlier restart immediately when [restart_contenders] (default [true]).
    [priorities] assigns each core an SRI priority class (lower = more
    urgent; default: one class, the paper's configuration); [trace]
    records every SRI transaction. [max_cycles] (default
    {!default_max_cycles}) guards against runaway programs. [kernel]
    selects the simulation loop (default {!default_kernel}); results do
    not depend on the choice. Cores read their compiled scripts from
    the script memo below.
    @raise Cycle_limit_exceeded when the budget is exhausted.
    @raise Invalid_argument on core-index clashes or out-of-range cores. *)

val run_isolation :
  ?config:config ->
  ?max_cycles:int ->
  ?kernel:kernel ->
  ?core:int ->
  Program.t ->
  run_result
(** The task alone on the platform ([core] defaults to 0). *)

(** {1 The script memo}

    Every {!run} checks the compiled {!Core_model.Script}s it needs out
    of one process-wide memo keyed by ({!Program.digest}, core config) and
    returns them when it ends, also when it raises. Cores of one run
    that execute the same program on the same config share one script. A
    script is lent to one run at a time; a concurrent run that needs one
    already lent out compiles its own. Results never depend on what the
    memo holds: scripts are timing-independent. The timing-tier counters
    [tcsim.script_memo.hits] / [.misses] count check-outs, and the gauge
    [tcsim.script_memo.segments] holds the segment slots retained. *)

val script_memo_cap : int
(** [2^19]: the most segment slots ({!Core_model.Script.footprint}) the
    memo retains in total. Replayed segments take no slot, so a script's
    size follows what it compiled, not how many loop iterations it
    covers. Returning a script evicts the least recently returned ones
    until it fits; a script larger than the cap is not kept. *)

val clear_scripts : unit -> unit
(** Drops every retained script; scripts lent out are returned as
    usual. [Runtime.Run_cache.clear] calls it, so cold caches stay
    cold. *)
