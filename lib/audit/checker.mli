(** The independent certificate checker.

    Verifies a {!Ilp.Cert.t} against the original {!Ilp.Model.t} and the
    answer it claims to certify, using only {!Zed}/{!Ratio} arithmetic —
    no {!Numeric.Fastq}, no simplex code, no presolve. The trust base of
    an audited answer is therefore: the model construction itself, this
    module (a few hundred lines of schoolbook arithmetic and interval
    reasoning), and the certificate decoding — {e not} the ~3k lines of
    warm-started solver the answer came from.

    What each verdict means:
    - [Optimal] (LP): the claimed point is feasible, attains the claimed
      objective, and the dual multipliers prove no feasible point does
      better (exact strong duality at the optimal basis).
    - [Infeasible]: an empty variable box, or a Farkas combination whose
      activity interval over the box excludes its right-hand side.
    - [Unbounded]: a feasible point plus a recession ray improving the
      objective — the relaxation is unbounded.
    - [Optimal]/[Infeasible] (ILP): the search-tree log replays — node
      boxes re-derived from the declared bounds and the branching path
      cover the whole integer box, every leaf carries a verifying
      infeasibility proof or a dual bound that cannot beat the answer by
      more than the recorded slack, and (for [Optimal]) the answer point
      is integer-feasible and attains the claimed objective. *)

type verdict =
  | Verified
  | Failed of string  (** human-readable reason; stable enough for logs *)

val check :
  ?slack:Numeric.Q.t -> Ilp.Model.t -> Ilp.Solution.t -> Ilp.Cert.t -> verdict
(** Pure check, no metrics. [slack], when given, must equal the slack
    recorded in an ILP certificate (callers that know what they asked
    the solver for pin it); the bound margin always uses the recorded
    value. *)

val audit :
  ?slack:Numeric.Q.t ->
  Ilp.Model.t -> Ilp.Solution.t -> Ilp.Cert.t -> verdict
(** {!check} wrapped in an ["audit"] tracer span and the
    [audit.verified] / [audit.failed] metrics. *)
