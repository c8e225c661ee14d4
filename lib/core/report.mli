(** Analysis reports: a self-contained record of one contention-aware WCET
    estimation, suitable for design reviews and certification dossiers.

    Besides the numbers, the report explains {e why} the ILP bound is what
    it is: which model constraints are binding at the optimum — e.g.
    whether the contender's measured load (Eqs. 22–23) or the task's own
    capacity (Eqs. 11–19) limits the interference, the distinction behind
    the paper's Figure 4 discussion. *)

open Platform

val binding_constraints :
  ?options:Ilp_ptac.options ->
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  b:Counters.t ->
  Ilp_ptac.result ->
  (string * string) list
(** Constraints of the (rebuilt) ILP that hold with equality at the
    result's variable assignment, as [(name, "lhs sense rhs")] pairs. *)

val render :
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  b:Counters.t ->
  isolation_cycles:int ->
  ?observed_cycles:int ->
  ftc:Ftc.result ->
  model:Ilp.Model.t ->
  ilp:Ilp_ptac.result option ->
  unit ->
  string
(** A complete markdown report of computed bounds ([ilp] solved from
    [model]): inputs, derived access bounds, the fTC and ILP-PTAC
    estimates, the interference breakdown and the binding constraints. *)

val markdown :
  ?options:Ilp_ptac.options ->
  latency:Latency.t ->
  scenario:Scenario.t ->
  a:Counters.t ->
  b:Counters.t ->
  isolation_cycles:int ->
  ?observed_cycles:int ->
  unit ->
  string
(** {!render} of the fTC bound and one ILP-PTAC model built and solved
    here. *)
