(** Lint over simulated task programs and their shared-memory layout.

    The contention models assume concurrent tasks never share 32-byte SRI
    lines (the workloads reserve disjoint LMU / flash windows per task);
    a violated assumption turns "contention" into coherence traffic the
    models do not cover. These checks validate a co-run's program set
    statically, before any simulation.

    Rules:
    - [address-unmapped] (error): an instruction's fetch address or a
      load/store target falls outside the TC27x address map;
    - [code-from-dfl] (error): an instruction fetched from the data flash —
      code never targets the DFL (Figure 2);
    - [loop-unreachable] (warning): a loop with count 0; its body can
      never execute, so its accesses silently vanish from every profile;
    - [map-overlap] (error): two tasks on {e different} cores touch the
      same 32-byte line of a shared target (same-core tasks may share
      freely — they never run concurrently);
    - [code-data-overlap] (warning): one task both fetches and
      loads/stores the same shared line;
    - [zero-traffic-mismatch] (warning, with [scenario]): a task accesses
      a (target, op) pair a [Zero] tailoring spec declares impossible. *)

type task = {
  label : string;
  core : int;
      (** tasks on distinct cores run concurrently and must not share
          SRI lines *)
  program : Tcsim.Program.t;
}

val check : ?scenario:Platform.Scenario.t -> task list -> Diag.t list
(** Per-program address and reachability checks plus the cross-core
    overlap analysis. Diagnostic paths are rooted at each task's label.

    The per-program part is each program's {!Tcsim.Program.layout},
    taken once per program value and kept in it; a call renders its
    findings under the tasks' labels, keeps the [zero-traffic-mismatch]
    findings of the pairs [scenario] declares zero, and intersects the
    sorted line sets of tasks on different cores. The diagnostics and
    their order do not depend on which calls came before. *)
