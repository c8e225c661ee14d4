(** Static pass over solver answers and their certificates.

    Bridges {!Audit.Checker} into the {!Diag} reporting pipeline so
    certificate problems surface through the same machinery as model,
    counter and scenario defects — including [lint --fixtures], whose
    seeded bad certificates keep the pass itself honest.

    Rules:
    - [audit.certificate-missing] (warning): the answer carries no
      certificate, so it cannot be independently verified (a producer
      predating certificates, such as a certless solve-cache entry).
    - [audit.certificate-rejected] (error): the certificate does not
      prove the answer; the checker's reason is included. *)

val check :
  ?path:string list ->
  ?slack:Numeric.Q.t ->
  Ilp.Model.t -> Ilp.Solution.t -> Ilp.Cert.t option -> Diag.t list
(** Runs {!Audit.Checker.check} (pure — no metrics) and renders the
    verdict as diagnostics; an empty list means the certificate
    verified. [path] locates the solve in reports (default
    [["audit"]]). *)
