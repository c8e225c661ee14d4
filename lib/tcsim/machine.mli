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

type script_table
(** A table of compiled {!Core_model.Script}s keyed by (program content,
    core config), shared by the runs of a family. Stateful and
    single-threaded: use one table only for runs executed sequentially
    on one domain. *)

val script_table : unit -> script_table

val run :
  ?config:config ->
  ?max_cycles:int ->
  ?restart_contenders:bool ->
  ?priorities:int array ->
  ?trace:bool ->
  ?kernel:kernel ->
  ?scripts:script_table ->
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
    not depend on the choice. [scripts] attaches the run to a family:
    cores read their compiled scripts from the table, compiling the
    ones it lacks (default: a fresh table) — results are identical
    either way (the [sim.family_reuse] counter records how many
    attachments were reuses).
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

(** {1 Run families}

    A family groups runs that share programs — typically one task
    measured in isolation and under several contender mixes. Members
    execute sequentially in list order, sharing one {!script_table}:
    the first member to run a (program, core config) pair pays for its
    compilation, every later member reads the compiled segments. Each
    member's {!run_result} is exactly what a solo {!run} with the same
    arguments would produce. *)

type spec = {
  sp_restart_contenders : bool;
  sp_priorities : int array option;
  sp_trace : bool;
  sp_analysis : task;
  sp_contenders : task list;
}
(** One family member: the per-run arguments of {!run} that may vary
    within a family. [config], [max_cycles] and [kernel] are
    family-wide. *)

val spec :
  ?restart_contenders:bool ->
  ?priorities:int array ->
  ?trace:bool ->
  analysis:task ->
  ?contenders:task list ->
  unit ->
  spec
(** Builds a {!spec}; defaults match {!run}
    ([restart_contenders = true], no priorities, [trace = false]). *)

val run_family :
  ?config:config ->
  ?max_cycles:int ->
  ?kernel:kernel ->
  spec list ->
  run_result list
(** Runs every member in order, sharing scripts; results in member
    order. An exception from a member ({!Cycle_limit_exceeded},
    validation errors) propagates immediately — as with sequential solo
    runs, later members do not execute. *)
