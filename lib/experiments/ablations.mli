(** Ablation and extension studies beyond the paper's headline figure.

    A1 — contender information (Eqs. 22–23): dropping the contender-side
    constraints makes the ILP bound fully time-composable; the study
    quantifies how much tightness that information buys per load level.

    A2 — stall-equality encoding: the paper states Eqs. 20–23 as
    equalities over minimum per-request stalls; this study compares the
    three encodings ({!Contention.Ilp_ptac.equality_mode}) and shows the
    literal [Exact] reading is typically infeasible on real readings.

    A3 — multi-contender extension (Section 2): the application against
    two simultaneous co-runners, bound = sum of per-contender ILPs.

    A4 — FSB reduction (Section 4.3): the crossbar model collapsed onto a
    single shared bus, compared against the crossbar-aware bound. *)

open Platform

type a1_row = {
  a1_scenario : string;
  a1_load : Workload.Load_gen.level;
  with_info : int;  (** ILP-PTAC Δcont *)
  without_info : int;  (** same ILP without Eqs. 22–23 *)
  ftc_delta : int;  (** the closed-form fTC bound, for reference *)
}

val a1_contender_info :
  ?config:Tcsim.Machine.config -> ?jobs:int -> unit -> a1_row list
(** One row function mapped over the (scenario, load) cells on a
    [jobs]-wide pool (default {!Runtime.Pool.default_jobs}): the Figure 4
    cell's {!Cell.run} (its ILP-PTAC and fTC bounds), then the ILP without
    Eqs. 22–23. Row order (and
    every row byte) is independent of [jobs], as for every study below. *)

type a2_row = {
  a2_scenario : string;
  mode : Contention.Ilp_ptac.equality_mode;
  delta : int option;  (** [None] = infeasible *)
}

val a2_equality_modes :
  ?config:Tcsim.Machine.config -> ?jobs:int -> unit -> a2_row list
(** Both scenarios, H-Load, the three encodings; each scenario is one
    pool cell, so its readings are taken once for the three modes. *)

type a3_result = {
  a3_scenario : string;
  isolation_cycles : int;
  observed_two_contenders : int;
  bound : int option;  (** summed two-contender Δcont *)
  per_contender : int list;
}

val a3_multi_contender :
  ?config:Tcsim.Machine.config -> ?jobs:int -> Scenario.t -> a3_result
(** Application on core 0, M-Load on core 1, L-Load on core 2 (the 1.6E
    efficiency core): one {!Cell.run} with the co-run. Like every cell,
    it runs its simulations in order, so [jobs] has no effect. *)

type a4_row = {
  a4_scenario : string;
  a4_load : Workload.Load_gen.level;
  crossbar_delta : int;
  fsb_delta : int;
}

val a4_fsb : ?config:Tcsim.Machine.config -> ?jobs:int -> unit -> a4_row list

val pp_a1 : Format.formatter -> a1_row list -> unit
val pp_a2 : Format.formatter -> a2_row list -> unit
val pp_a3 : Format.formatter -> a3_result -> unit
val pp_a4 : Format.formatter -> a4_row list -> unit
