open Numeric
open Platform

type fixture = {
  fname : string;
  expected_rule : string;
  diags : unit -> Diag.t list;
}

let infeasible_model =
  let diags () =
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~lb:Q.zero ~ub:(Q.of_int 2) "x" in
    Ilp.Model.add_constraint m ~name:"demand" (Ilp.Linexpr.var x)
      Ilp.Model.Ge (Q.of_int 4);
    Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
    Model_lint.check ~path:[ "fixture:infeasible_model" ] m
  in
  { fname = "infeasible_model"; expected_rule = "row-contradiction"; diags }

let corrupt_counters =
  let diags () =
    let c =
      {
        Counters.ccnt = 1_000;
        pmem_stall = 1_200;
        dmem_stall = 40;
        pcache_miss = 25;
        dcache_miss_clean = 8;
        dcache_miss_dirty = 2;
      }
    in
    Counter_lint.check ~path:[ "fixture:corrupt_counters" ] c
  in
  { fname = "corrupt_counters"; expected_rule = "stall-exceeds-ccnt"; diags }

let illegal_scenario =
  let diags () =
    (* Built as a raw record on purpose: Deployment.make would reject it.
       The lint must catch configurations that arrive from outside that
       constructor (e.g. parsed from a config file). *)
    let deployment =
      {
        Deployment.name = "illegal";
        sections =
          [
            {
              Deployment.kind = Op.Data;
              place = Deployment.Shared (Target.Pf0, Deployment.Non_cacheable);
              label = "calib-data";
            };
          ];
      }
    in
    let scenario =
      {
        Scenario.name = "fixture:illegal_scenario";
        description = "non-cacheable data on program flash";
        deployment;
        specs = [];
      }
    in
    Scenario_lint.check scenario
  in
  { fname = "illegal_scenario"; expected_rule = "placement-inadmissible"; diags }

let overlapping_tasks =
  let diags () =
    let clash = Tcsim.Memory_map.lmu_uncached_base in
    let prog ~core =
      Tcsim.Program.make
        ~name:(Printf.sprintf "clasher%d" core)
        (Tcsim.Program.seq ~pc_base:Tcsim.Memory_map.pspr_base
           [ Tcsim.Program.Load clash; Tcsim.Program.Compute 1 ])
    in
    Diag.prefix
      [ "fixture:overlapping_tasks" ]
      (Program_lint.check
         [
           { Program_lint.label = "task-a"; core = 0; program = prog ~core:0 };
           { Program_lint.label = "task-b"; core = 1; program = prog ~core:1 };
         ])
  in
  { fname = "overlapping_tasks"; expected_rule = "map-overlap"; diags }

(* --- seeded bad certificates (the audit pass must reject all three) --- *)

let bad_dual_certificate =
  let diags () =
    (* max x, x <= 4: solve certified, then nudge the dual multiplier —
       the dual bound no longer equals the objective *)
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m "x" in
    Ilp.Model.add_constraint m ~name:"cap" (Ilp.Linexpr.var x) Ilp.Model.Le
      (Q.of_int 4);
    Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
    let sol, cert = Ilp.Simplex.solve_certified m in
    let cert =
      match cert with
      | Ilp.Cert.Optimal_cert { duals } ->
        let duals = Array.copy duals in
        duals.(0) <- Q.add duals.(0) Q.one;
        Ilp.Cert.Lp (Ilp.Cert.Optimal_cert { duals })
      | c -> Ilp.Cert.Lp c
    in
    Audit_lint.check ~path:[ "fixture:bad_dual_certificate" ] m sol (Some cert)
  in
  {
    fname = "bad_dual_certificate";
    expected_rule = "audit.certificate-rejected";
    diags;
  }

let truncated_tree_certificate =
  let diags () =
    (* an ILP whose relaxation is fractional, so the certified search
       must branch; the fixture then lops off the up subtree and
       replaces it with an all-zero Farkas ray, which excludes nothing *)
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true "x" in
    let y = Ilp.Model.add_var m ~integer:true "y" in
    Ilp.Model.add_constraint m
      Ilp.Linexpr.(
        add (var ~coeff:(Q.of_int (-2)) x) (var ~coeff:(Q.of_int 2) y))
      Ilp.Model.Le Q.one;
    Ilp.Model.add_constraint m
      Ilp.Linexpr.(add (var ~coeff:(Q.of_int 2) x) (var ~coeff:(Q.of_int 2) y))
      Ilp.Model.Le (Q.of_int 9);
    Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var y);
    let sol, cert = Ilp.Branch_bound.solve_certified m in
    let vacuous = Ilp.Cert.Farkas_ray [| Q.zero; Q.zero |] in
    let cert =
      match cert with
      | Ilp.Cert.Ilp { islack; tree = Ilp.Cert.Branch b } ->
        Ilp.Cert.Ilp
          {
            islack;
            tree =
              Ilp.Cert.Branch { b with up = Ilp.Cert.Leaf_infeasible vacuous };
          }
      | Ilp.Cert.Ilp { islack; _ } ->
        Ilp.Cert.Ilp { islack; tree = Ilp.Cert.Leaf_infeasible vacuous }
      | c -> c
    in
    Audit_lint.check ~path:[ "fixture:truncated_tree_certificate" ] m sol
      (Some cert)
  in
  {
    fname = "truncated_tree_certificate";
    expected_rule = "audit.certificate-rejected";
    diags;
  }

let tampered_solution_objective =
  let diags () =
    (* a cached-entry tamper in miniature: the certificate is pristine
       but the answer it ships with was bumped by one *)
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true ~ub:(Q.of_int 3) "x" in
    let y = Ilp.Model.add_var m ~integer:true ~ub:(Q.of_int 3) "y" in
    Ilp.Model.add_constraint m
      Ilp.Linexpr.(add (var ~coeff:(Q.of_int 3) x) (var ~coeff:(Q.of_int 2) y))
      Ilp.Model.Le (Q.of_int 7);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      Ilp.Linexpr.(add (var ~coeff:(Q.of_int 2) x) (var y));
    let sol, cert = Ilp.Branch_bound.solve_certified m in
    let sol =
      match sol with
      | Ilp.Solution.Optimal { objective; values } ->
        Ilp.Solution.Optimal { objective = Q.add objective Q.one; values }
      | s -> s
    in
    Audit_lint.check ~path:[ "fixture:tampered_solution_objective" ] m sol
      (Some cert)
  in
  {
    fname = "tampered_solution_objective";
    expected_rule = "audit.certificate-rejected";
    diags;
  }

let all =
  [
    infeasible_model;
    corrupt_counters;
    illegal_scenario;
    overlapping_tasks;
    bad_dual_certificate;
    truncated_tree_certificate;
    tampered_solution_objective;
  ]
