(** Co-runner benchmarks: H-Load, M-Load and L-Load (paper Section 4.2).

    Each co-runner follows the same deployment scenario as the application
    (Section 4.1: "deployment configurations equally apply to the task
    under analysis and contenders") and runs for a comparable or longer
    time in isolation, but puts a decreasing amount of traffic on the SRI:
    High issues more shared-memory requests than the application itself,
    Medium about half, Low a small fraction — the gradient that lets the
    ILP-PTAC model adapt while fTC cannot. *)

type level = High | Medium | Low

val all_levels : level list
val level_to_string : level -> string

val level_of_string : string -> level option
(** Case-insensitive inverse of {!level_to_string}; also accepts the
    bare names ["high"]/["medium"]/["low"] (and initials) used by the
    serve wire protocol. *)

val make :
  variant:Control_loop.variant ->
  level:level ->
  ?region_slot:int ->
  unit ->
  Tcsim.Program.t
(** A co-runner for the given deployment variant and load level.
    [region_slot] (default 1) selects disjoint LMU/pf windows so concurrent
    tasks never share memory lines; slot 0 is the application's. One
    shared value per (variant, level, slot): built on the first request
    (from any domain) and returned physically equal ever after; item for
    item it is [Control_loop.build variant (params ~variant ~level
    ~region_slot)].
    @raise Invalid_argument unless [0 <= region_slot <= 2], the three task
    windows the 32 KiB LMU holds. *)

val params : variant:Control_loop.variant -> level:level -> region_slot:int -> Control_loop.params
(** The generator parameters {!make} uses (exposed for inspection and for
    the experiment index in DESIGN.md). *)
