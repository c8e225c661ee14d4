(** Mutable LP/ILP model builder.

    A model owns a set of variables (continuous or integer, with optional
    bounds), a set of linear constraints and one linear objective. It is the
    common input of {!Simplex} (which ignores integrality) and
    {!Branch_bound} (which enforces it). *)

open Numeric

type t

type var = int
(** Variable handle, dense from 0 in creation order. *)

type sense = Le | Ge | Eq
type direction = Maximize | Minimize

type var_info = {
  name : string;
  integer : bool;
  lb : Q.t option;  (** [None] = unbounded below *)
  ub : Q.t option;  (** [None] = unbounded above *)
}

type constr = { cname : string; expr : Linexpr.t; csense : sense; rhs : Q.t }

val create : unit -> t

val add_var :
  t -> ?integer:bool -> ?lb:Q.t -> ?ub:Q.t -> string -> var
(** Declares a variable. Default: continuous, [lb = Some 0], no upper
    bound. Pass [?lb:None] explicitly for a free variable (use
    {!add_free_var}). Names need not be unique but help debugging. *)

val add_free_var : t -> ?integer:bool -> string -> var
(** Variable unbounded in both directions. *)

val set_var_bounds : t -> var -> lb:Q.t option -> ub:Q.t option -> unit
(** Replaces a variable's bounds (used by {!Canonical}).
    @raise Invalid_argument on an unknown variable. *)

val add_constraint : t -> ?name:string -> Linexpr.t -> sense -> Q.t -> unit
(** [add_constraint m e s b] adds the constraint [e s b]. A non-zero
    constant inside [e] is folded into the right-hand side. *)

val set_objective : t -> direction -> Linexpr.t -> unit
(** Default objective: maximize 0. *)

(** {1 Accessors} *)

val num_vars : t -> int
val var_info : t -> var -> var_info
val var_name : t -> var -> string
val constraints : t -> constr list
(** In insertion order. *)

val objective : t -> direction * Linexpr.t
val integer_vars : t -> var list

val check_feasible :
  ?tol_integrality:bool -> t -> (var -> Q.t) -> (string, string) result
(** [check_feasible m v] verifies every bound and constraint under the
    assignment [v]; [Ok "feasible"] or [Error reason]. With
    [~tol_integrality:false] (default [true]) integrality of integer
    variables is not checked. *)

val canonical : t -> string
(** A canonical textual encoding of the model's {e mathematical} content:
    variable kinds and bounds (in creation order), constraints (in
    insertion order: exact rational coefficients, sense, right-hand
    side) and the objective. Variable and constraint {e names} are
    excluded — two models differing only in naming denote the same
    program and encode identically. {!Canonical.structure} is this
    string of the canonical representative, which
    {!Runtime.Solve_cache} hashes. *)

val pp : Format.formatter -> t -> unit
