(* The arithmetic the solver's tiers share. The simplex engine, the
   bound-propagation presolve and the branch & bound search are each
   written once over [S] and instantiated on machine-word {!Fastq}
   rationals (any overflow raises [Fastq.Overflow]) and on exact {!Q}
   bignum rationals. Both instances are exact, so a search that finishes
   on the fast tier takes the same steps it would take on the exact
   one. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_q : Q.t -> t (* may raise Fastq.Overflow *)
  val to_q : t -> Q.t
  val neg : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val floor : t -> t
  val ceil : t -> t
  val sign : t -> int
  val is_zero : t -> bool
  val compare : t -> t -> int
end

module Exact : S with type t = Q.t = struct
  include Q

  let of_q q = q
  let to_q q = q
end

module Fast : S with type t = Fastq.t = Fastq
