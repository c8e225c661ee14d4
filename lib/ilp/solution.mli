(** Results of LP / ILP solving. *)

open Numeric

type 'a over =
  | Optimal of { objective : 'a; values : 'a array }
      (** [values.(v)] is the assignment of model variable [v]. *)
  | Infeasible
  | Unbounded
(** A result over any scalar: the solver's tiers work on their own
    machine-word or bignum rationals and convert with {!map} once, when
    they hand the answer back. *)

type t = Q.t over

val map : ('a -> 'b) -> 'a over -> 'b over

exception Not_optimal of t
(** Raised by the [_exn] accessors on a non-[Optimal] solution, carrying
    the actual constructor so handlers can distinguish [Infeasible] from
    [Unbounded] without string matching. *)

val objective_exn : t -> Q.t
(** @raise Not_optimal if the solution is not [Optimal]. *)

val values_exn : t -> Q.t array
(** @raise Not_optimal if the solution is not [Optimal]. *)

val value_exn : t -> int -> Q.t
(** [value_exn s v] is variable [v]'s assignment.
    @raise Not_optimal if the solution is not [Optimal]. *)

val is_optimal : t -> bool

val equal : t -> t -> bool
(** Structural equality: same constructor, exactly equal objective and
    pointwise equal values. *)

val pp : Format.formatter -> t -> unit
