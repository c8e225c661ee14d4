(** SRI target (slave) resources of the AURIX TC27x.

    The Shared Resource Interconnect connects the three TriCore masters to
    the shared memory system: the LMU SRAM and the PMU flash, the latter
    exposed through three independent interfaces — two program-flash banks
    ([Pf0], [Pf1]) and the data flash ([Dfl]). The SRI can serve requests to
    distinct targets in parallel; contention arises only between requests to
    the same target (paper, Section 2). *)

type t = Dfl | Pf0 | Pf1 | Lmu

val all : t list
(** [Dfl; Pf0; Pf1; Lmu] — the set T of the paper. *)

val code_targets : t list
(** Targets reachable by code fetches: pf0, pf1, lmu (Figure 2). *)

val data_targets : t list
(** Targets reachable by data accesses: all of T (Figure 2). *)

val is_flash : t -> bool
val equal : t -> t -> bool

val rank : t -> int
(** Position in {!all}, from 0. *)

val compare : t -> t -> int
val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
