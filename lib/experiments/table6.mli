(** Table 6 reproduction: debug-counter readings under the two reference
    scenarios for Core 1 (the application) and Core 2 (the H-Load
    contender), each collected in isolation.

    Absolute values differ from the paper's silicon measurements (different
    binaries, scaled workloads) but the structural signature is preserved:
    large PM/PS/DS with zero cache-miss counters in Scenario 1, doubled PM
    with small DMC and zero DMD in Scenario 2. *)

type entry = { scenario : string; core : int; counters : Platform.Counters.t }

val run : ?config:Tcsim.Machine.config -> ?jobs:int -> unit -> entry list
(** Four rows: (scenario1, scenario2) x (application, H-Load). Each row is
    a {!Cell.run} of the program alone on a [jobs]-wide pool
    (default {!Runtime.Pool.default_jobs}); row order is fixed. *)

val pp : Format.formatter -> entry list -> unit
(** Rendered in the paper's column order: PM DMC DMD PS DS. *)
