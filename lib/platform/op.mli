(** Operation types on an SRI target: the set O = \{co, da\} of the paper.

    The TC27x distinguishes latencies per access type, but the model only
    discriminates between instruction fetches ([Code]) and data accesses
    ([Data]); within each class the reported latency is the maximum of read
    and write (paper, Section 2, Table 2). *)

type t = Code | Data

val all : t list
val equal : t -> t -> bool

val rank : t -> int
(** Position in {!all}, from 0. *)

val compare : t -> t -> int
val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit

val valid : Target.t -> t -> bool
(** [valid t o] is whether requests of type [o] may target [t]: code never
    targets the data flash (Figure 2). *)

val valid_pairs : (Target.t * t) list
(** All admissible (target, op) pairs, in a fixed order. *)
