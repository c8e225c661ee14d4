(** Machine-word rationals with overflow detection — the solver's
    speculative fast path.

    Values mirror {!Q}'s canonical form (positive denominator coprime
    with the numerator, zero as [0/1]) but live in native 63-bit
    integers, so the four arithmetic operations cost a handful of machine
    instructions instead of bignum allocations. Any operation whose exact
    result (or a required intermediate) leaves the representable range
    raises {!Overflow} — it never silently wraps — which lets the simplex
    engine run speculatively on this type and re-run on exact {!Q}
    rationals when the exception fires. Soundness therefore does not rest
    on any magnitude assumption. *)

exception Overflow
(** Raised whenever a result cannot be represented exactly. *)

type t = private { n : int; d : int }

val zero : t
val one : t
val minus_one : t

val make : int -> int -> t
(** [make n d] is the normalised rational [n/d].
    @raise Division_by_zero if [d = 0].
    @raise Overflow on [min_int] operands. *)

val of_int : int -> t

val of_q : Q.t -> t
(** @raise Overflow when numerator or denominator exceed native range. *)

val to_q : t -> Q.t
(** Total — every [t] is exactly representable as a {!Q.t}. *)

val num : t -> int
val den : t -> int
val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** @raise Overflow when the cross products exceed native range. *)

val neg : t -> t
val abs : t -> t

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val floor : t -> t
(** Largest integer [<=] the argument, as {!Q.floor}; never overflows. *)

val ceil : t -> t
(** Smallest integer [>=] the argument, as {!Q.ceil}; never overflows. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
