(* Tests for the exact LP/ILP solver.

   Coverage: textbook LPs with known optima, infeasible/unbounded detection,
   degenerate and equality-constrained problems, branch & bound on small
   ILPs, and property tests that cross-check branch & bound against brute
   force on random bounded instances. *)

open Numeric

let q = Q.of_int
let qr = Q.of_ints

let le terms rhs m = Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Le rhs
let ge terms rhs m = Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Ge rhs
let eq terms rhs m = Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Eq rhs

let check_opt msg expected solution =
  match solution with
  | Ilp.Solution.Optimal { objective; _ } ->
    Alcotest.(check string) msg (Q.to_string expected) (Q.to_string objective)
  | Ilp.Solution.Infeasible -> Alcotest.failf "%s: unexpectedly infeasible" msg
  | Ilp.Solution.Unbounded -> Alcotest.failf "%s: unexpectedly unbounded" msg

(* --- LP unit tests ----------------------------------------------------------- *)

let test_lp_basic () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2,6) *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  le [ (Q.one, x) ] (q 4) m;
  le [ (q 2, y) ] (q 12) m;
  le [ (q 3, x); (q 2, y) ] (q 18) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 3, x); (q 5, y) ]);
  let s = Ilp.Simplex.solve m in
  check_opt "wyndor glass" (q 36) s;
  Alcotest.(check string) "x = 2" "2" (Q.to_string (Ilp.Solution.value_exn s x));
  Alcotest.(check string) "y = 6" "6" (Q.to_string (Ilp.Solution.value_exn s y))

let test_lp_fractional_optimum () =
  (* max x + y st 2x + y <= 3, x + 2y <= 3 -> 2 at (1,1); then perturb *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  le [ (q 2, x); (Q.one, y) ] (q 3) m;
  le [ (Q.one, x); (q 2, y) ] (q 4) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (Q.one, x); (Q.one, y) ]);
  let s = Ilp.Simplex.solve m in
  (* intersection: x = 2/3, y = 5/3, objective 7/3 *)
  check_opt "fractional optimum" (qr 7 3) s

let test_lp_minimize () =
  (* min 2x + 3y st x + y >= 4, x >= 1 -> at (4,0): 8?  x+y>=4, minimize:
     pick all x: 2*4 = 8; but y cheaper per unit of constraint? 3 > 2 so x. *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  ge [ (Q.one, x); (Q.one, y) ] (q 4) m;
  ge [ (Q.one, x) ] Q.one m;
  Ilp.Model.set_objective m Ilp.Model.Minimize
    (Ilp.Linexpr.of_terms [ (q 2, x); (q 3, y) ]);
  check_opt "minimisation" (q 8) (Ilp.Simplex.solve m)

let test_lp_equality () =
  (* max x st x + y = 5, y >= 2 -> x = 3 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  eq [ (Q.one, x); (Q.one, y) ] (q 5) m;
  ge [ (Q.one, y) ] (q 2) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_opt "equality constraint" (q 3) (Ilp.Simplex.solve m)

let test_lp_infeasible () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  le [ (Q.one, x) ] Q.one m;
  ge [ (Q.one, x) ] (q 2) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  (match Ilp.Simplex.solve m with
   | Ilp.Solution.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_lp_unbounded () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  ge [ (Q.one, x); (Q.neg Q.one, y) ] Q.zero m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  (match Ilp.Simplex.solve m with
   | Ilp.Solution.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

let test_lp_upper_bounds () =
  (* max x + y, x in [0,3], y in [1,2], x + y <= 4 -> 4 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 3) "x" in
  let y = Ilp.Model.add_var m ~lb:Q.one ~ub:(q 2) "y" in
  le [ (Q.one, x); (Q.one, y) ] (q 4) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (Q.one, x); (Q.one, y) ]);
  check_opt "boxed vars" (q 4) (Ilp.Simplex.solve m)

let test_lp_free_variable () =
  (* min x st x >= -10 via constraint on a free var *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_free_var m "x" in
  ge [ (Q.one, x) ] (q (-10)) m;
  Ilp.Model.set_objective m Ilp.Model.Minimize (Ilp.Linexpr.var x);
  let s = Ilp.Simplex.solve m in
  check_opt "free variable minimum" (q (-10)) s;
  Alcotest.(check string) "x = -10" "-10" (Q.to_string (Ilp.Solution.value_exn s x))

let test_lp_negative_rhs () =
  (* -x - y <= -4 is x + y >= 4. *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  le [ (Q.neg Q.one, x); (Q.neg Q.one, y) ] (q (-4)) m;
  le [ (Q.one, x) ] (q 10) m;
  le [ (Q.one, y) ] (q 10) m;
  Ilp.Model.set_objective m Ilp.Model.Minimize
    (Ilp.Linexpr.of_terms [ (Q.one, x); (Q.one, y) ]);
  check_opt "negative rhs normalisation" (q 4) (Ilp.Simplex.solve m)

let test_lp_degenerate () =
  (* Classic degenerate LP; Bland's rule must terminate. *)
  let m = Ilp.Model.create () in
  let x1 = Ilp.Model.add_var m "x1" in
  let x2 = Ilp.Model.add_var m "x2" in
  let x3 = Ilp.Model.add_var m "x3" in
  le [ (qr 1 4, x1); (q (-8), x2); (Q.neg Q.one, x3) ] Q.zero m;
  le [ (qr 1 2, x1); (q (-12), x2); (qr (-1) 2, x3) ] Q.zero m;
  le [ (Q.zero, x1); (Q.zero, x2); (Q.one, x3) ] Q.one m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (qr 3 4, x1); (q (-20), x2); (qr 1 2, x3) ]);
  (* Beale's cycling example has optimum 1/20... with this variant the
     optimum value is 1.25 at x=(1,0,1)/...; just require termination +
     feasibility of the answer. *)
  match Ilp.Simplex.solve m with
  | Ilp.Solution.Optimal { values; _ } ->
    let lookup v = values.(v) in
    (match Ilp.Model.check_feasible m lookup with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "infeasible answer: %s" e)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_constant_in_expr () =
  (* Constant terms inside constraint expressions fold into rhs. *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let e = Ilp.Linexpr.add_const (Ilp.Linexpr.var x) (q 2) in
  Ilp.Model.add_constraint m e Ilp.Model.Le (q 5);
  (* x + 2 <= 5 -> x <= 3 *)
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  check_opt "constant folding" (q 3) (Ilp.Simplex.solve m)

let test_lp_objective_constant () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 7) "x" in
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.add_const (Ilp.Linexpr.var x) (q 100));
  check_opt "objective constant offset" (q 107) (Ilp.Simplex.solve m)

(* --- ILP unit tests ----------------------------------------------------------- *)

let test_ilp_rounding_matters () =
  (* max y st -2x + 2y <= 1, 2x + 2y <= 9; LP optimum y = 2.5, ILP y = 2 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true "x" in
  let y = Ilp.Model.add_var m ~integer:true "y" in
  le [ (q (-2), x); (q 2, y) ] Q.one m;
  le [ (q 2, x); (q 2, y) ] (q 9) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var y);
  let lp = Ilp.Branch_bound.solve_lp_relaxation m in
  check_opt "LP relaxation" (qr 5 2) lp;
  let ilp = Ilp.Branch_bound.solve m in
  check_opt "ILP optimum" (q 2) ilp

let test_ilp_knapsack () =
  (* knapsack: values 60,100,120; weights 10,20,30; capacity 50 -> 220 *)
  let m = Ilp.Model.create () in
  let xs =
    List.map
      (fun i -> Ilp.Model.add_var m ~integer:true ~ub:Q.one (Printf.sprintf "item%d" i))
      [ 1; 2; 3 ]
  in
  (match xs with
   | [ a; b; c ] ->
     le [ (q 10, a); (q 20, b); (q 30, c) ] (q 50) m;
     Ilp.Model.set_objective m Ilp.Model.Maximize
       (Ilp.Linexpr.of_terms [ (q 60, a); (q 100, b); (q 120, c) ])
   | _ -> assert false);
  check_opt "knapsack" (q 220) (Ilp.Branch_bound.solve m)

let test_ilp_infeasible () =
  (* 2x = 3 has no integer solution with x in [0,5] *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~ub:(q 5) "x" in
  eq [ (q 2, x) ] (q 3) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  (match Ilp.Branch_bound.solve m with
   | Ilp.Solution.Infeasible -> ()
   | _ -> Alcotest.fail "expected ILP infeasible")

let test_ilp_equality_feasible () =
  (* 3x + 5y = 14, x,y >= 0 integer: x=3,y=1. Maximize x. *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true "x" in
  let y = Ilp.Model.add_var m ~integer:true "y" in
  eq [ (q 3, x); (q 5, y) ] (q 14) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  let s = Ilp.Branch_bound.solve m in
  check_opt "diophantine" (q 3) s;
  Alcotest.(check string) "y = 1" "1" (Q.to_string (Ilp.Solution.value_exn s y))

let test_ilp_mixed () =
  (* Mixed integer: y continuous. max 2x + y st x + y <= 7/2, x integer. *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true "x" in
  let y = Ilp.Model.add_var m "y" in
  le [ (Q.one, x); (Q.one, y) ] (qr 7 2) m;
  le [ (Q.one, x) ] (q 3) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 2, x); (Q.one, y) ]);
  (* x = 3, y = 1/2 -> 13/2 *)
  check_opt "mixed integer" (qr 13 2) (Ilp.Branch_bound.solve m)

let test_ilp_solution_feasibility () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~ub:(q 10) "x" in
  let y = Ilp.Model.add_var m ~integer:true ~ub:(q 10) "y" in
  le [ (q 7, x); (q 3, y) ] (q 40) m;
  ge [ (Q.one, x); (Q.one, y) ] (q 2) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 5, x); (q 4, y) ]);
  match Ilp.Branch_bound.solve m with
  | Ilp.Solution.Optimal { values; _ } ->
    (match Ilp.Model.check_feasible m (fun v -> values.(v)) with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "solution infeasible: %s" e)
  | _ -> Alcotest.fail "expected optimal"

(* --- property tests: branch & bound vs brute force --------------------------- *)

(* Random bounded 2-3 variable ILPs, maximisation, coefficients in [-5,5],
   variable range [0,6]: brute-force enumeration is the ground truth. *)

type rand_ilp = {
  nvars : int;
  ubounds : int array;
  rows : (int array * int) list; (* coeffs <= rhs *)
  obj : int array;
}

let gen_rand_ilp =
  let open QCheck.Gen in
  let* nvars = int_range 2 3 in
  let* ubounds = array_repeat nvars (int_range 1 6) in
  let* nrows = int_range 1 4 in
  let* rows =
    list_repeat nrows
      (pair (array_repeat nvars (int_range (-5) 5)) (int_range (-10) 30))
  in
  let* obj = array_repeat nvars (int_range (-5) 8) in
  return { nvars; ubounds; rows; obj }

let brute_force r =
  (* Maximise over the integer box; None if infeasible. *)
  let best = ref None in
  let x = Array.make r.nvars 0 in
  let rec go i =
    if i = r.nvars then begin
      let feasible =
        List.for_all
          (fun (coeffs, rhs) ->
             let lhs = ref 0 in
             Array.iteri (fun j c -> lhs := !lhs + (c * x.(j))) coeffs;
             !lhs <= rhs)
          r.rows
      in
      if feasible then begin
        let v = ref 0 in
        Array.iteri (fun j c -> v := !v + (c * x.(j))) r.obj;
        match !best with
        | Some b when b >= !v -> ()
        | _ -> best := Some !v
      end
    end
    else
      for value = 0 to r.ubounds.(i) do
        x.(i) <- value;
        go (i + 1)
      done
  in
  go 0;
  !best

let to_model r =
  let m = Ilp.Model.create () in
  let vars =
    Array.init r.nvars (fun i ->
        Ilp.Model.add_var m ~integer:true ~ub:(q r.ubounds.(i))
          (Printf.sprintf "x%d" i))
  in
  List.iter
    (fun (coeffs, rhs) ->
       let terms =
         Array.to_list (Array.mapi (fun j c -> (q c, vars.(j))) coeffs)
       in
       le terms (q rhs) m)
    r.rows;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms
       (Array.to_list (Array.mapi (fun j c -> (q c, vars.(j))) r.obj)));
  m

let prop_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch&bound matches brute force" ~count:200
    (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        match (Ilp.Branch_bound.solve m, brute_force r) with
        | Ilp.Solution.Optimal { objective; _ }, Some bf ->
          Q.equal objective (q bf)
        | Ilp.Solution.Infeasible, None -> true
        | Ilp.Solution.Optimal _, None -> false
        | Ilp.Solution.Infeasible, Some _ -> false
        | Ilp.Solution.Unbounded, _ -> false)

let prop_bb_solution_feasible =
  QCheck.Test.make ~name:"branch&bound solutions are feasible+integral"
    ~count:200 (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        match Ilp.Branch_bound.solve m with
        | Ilp.Solution.Optimal { values; _ } ->
          (match Ilp.Model.check_feasible m (fun v -> values.(v)) with
           | Ok _ -> true
           | Error _ -> false)
        | Ilp.Solution.Infeasible -> true
        | Ilp.Solution.Unbounded -> false)

let prop_lp_bounds_ilp =
  QCheck.Test.make ~name:"LP relaxation upper-bounds ILP (maximise)"
    ~count:200 (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        match (Ilp.Branch_bound.solve m, Ilp.Simplex.solve m) with
        | Ilp.Solution.Optimal { objective = i; _ },
          Ilp.Solution.Optimal { objective = l; _ } ->
          Q.compare i l <= 0
        | Ilp.Solution.Infeasible, _ -> true
        | _, Ilp.Solution.Infeasible -> false
        | _ -> true)

let prop_lp_feasible_answers =
  QCheck.Test.make ~name:"simplex answers satisfy constraints" ~count:200
    (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        match Ilp.Simplex.solve m with
        | Ilp.Solution.Optimal { values; _ } ->
          (match
             Ilp.Model.check_feasible ~tol_integrality:false m (fun v ->
                 values.(v))
           with
           | Ok _ -> true
           | Error _ -> false)
        | Ilp.Solution.Infeasible -> true
        | Ilp.Solution.Unbounded -> false)

(* Wider instances: up to 4 variables and 5 constraints. Bounds stay small
   (<= 5) so brute force remains an affordable oracle (<= 6^4 points). *)

let gen_rand_ilp_wide =
  let open QCheck.Gen in
  let* nvars = int_range 2 4 in
  let* ubounds = array_repeat nvars (int_range 1 5) in
  let* nrows = int_range 1 5 in
  let* rows =
    list_repeat nrows
      (pair (array_repeat nvars (int_range (-5) 5)) (int_range (-10) 30))
  in
  let* obj = array_repeat nvars (int_range (-5) 8) in
  return { nvars; ubounds; rows; obj }

let prop_wide_lp_bounds_ilp =
  QCheck.Test.make ~name:"4-var: ILP objective never exceeds LP relaxation"
    ~count:150 (QCheck.make gen_rand_ilp_wide) (fun r ->
        let m = to_model r in
        match (Ilp.Branch_bound.solve m, Ilp.Simplex.solve m) with
        | Ilp.Solution.Optimal { objective = i; _ },
          Ilp.Solution.Optimal { objective = l; _ } ->
          Q.compare i l <= 0
        | Ilp.Solution.Infeasible, _ -> true
        | _, Ilp.Solution.Infeasible -> false
        | _ -> true)

let prop_wide_bb_matches_brute_force =
  QCheck.Test.make ~name:"4-var: bounded boxes match brute force" ~count:150
    (QCheck.make gen_rand_ilp_wide) (fun r ->
        let m = to_model r in
        match (Ilp.Branch_bound.solve m, brute_force r) with
        | Ilp.Solution.Optimal { objective; _ }, Some bf ->
          Q.equal objective (q bf)
        | Ilp.Solution.Infeasible, None -> true
        | Ilp.Solution.Optimal _, None -> false
        | Ilp.Solution.Infeasible, Some _ -> false
        | Ilp.Solution.Unbounded, _ -> false)

(* --- deep-tree work accounting ---------------------------------------------- *)

(* A deterministic family of branch & bound workloads in the shape the
   contention pipelines produce — small integer programs with dense
   knapsack-style rows and fractional LP optima (halved objective
   coefficients defeat the integral-bound pruning, forcing real
   branching). A fixed LCG generates the family, so every run on every
   machine solves the same models. *)
let solver_models () =
  (* 48-bit LCG (Knuth/POSIX drand48 constants): fits the 63-bit native
     int and is identical on every platform *)
  let state = ref 0x5DEECE66D in
  let rand bound =
    state := ((!state * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
    (!state lsr 16) mod bound
  in
  List.init 12 (fun _ ->
      let q = Numeric.Q.of_int in
      let m = Ilp.Model.create () in
      let nv = 5 + rand 5 in
      let vars =
        Array.init nv (fun i ->
            Ilp.Model.add_var m ~integer:true ~ub:(q (2 + rand 7))
              (Printf.sprintf "x%d" i))
      in
      let nr = 6 + rand 7 in
      for _ = 1 to nr do
        let terms =
          Array.to_list (Array.map (fun v -> (q (rand 11 - 4), v)) vars)
        in
        Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Le
          (q (10 + rand 40))
      done;
      Ilp.Model.set_objective m Ilp.Model.Maximize
        (Ilp.Linexpr.of_terms
           (Array.to_list
              (Array.map (fun v -> (Numeric.Q.of_ints (1 + rand 17) 2, v)) vars)));
      m)

(* [f ()]'s increments of the named counters must equal [expected]. *)
let check_work expected f =
  let value name = Obs.Metrics.value (Obs.Metrics.counter name) in
  let before = List.map (fun (name, _) -> value name) expected in
  f ();
  List.iter2
    (fun (name, count) v0 -> Alcotest.(check int) name count (value name - v0))
    expected before

(* Pins the warm-started search's work on trees that branch past the
   root: any change to branching order, warm starts, presolve, the
   rounding heuristic or pivot rules moves these counts. *)
let test_solver_models_work () =
  check_work
    [ ("ilp.bb.nodes", 284); ("ilp.simplex.pivots", 496);
      ("ilp.simplex.dual_pivots", 403); ("ilp.bb.warm_starts", 264);
      ("ilp.presolve.calls", 284); ("ilp.presolve.bounds_tightened", 354);
      ("ilp.presolve.infeasible", 8); ("ilp.presolve.rows_propagated", 1667);
      ("ilp.bb.incumbents", 36);
      ("ilp.bb.pruned", 125); ("ilp.bb.engine_restarts", 0) ]
    (fun () ->
       List.iter (fun m -> ignore (Ilp.Branch_bound.solve m)) (solver_models ()))

(* Contention-shaped family: three fixed Scenario 2 counter pairs
   (measured by the simulator on the benchmark's exact-bounds programs),
   each with the LP-relaxation bound its exact ILP-PTAC falls back to. *)
let scenario2_pairs =
  let counters ccnt pmem_stall dmem_stall pcache_miss dcache_miss_clean =
    { Platform.Counters.ccnt; pmem_stall; dmem_stall; pcache_miss;
      dcache_miss_clean; dcache_miss_dirty = 0 }
  in
  [
    ( counters 500371 168960 15020 16896 119,
      counters 712088 138096 17251 13824 121, 246289 );
    ( counters 545680 184176 16355 18432 125,
      counters 141967 48560 14976 4864 143, 99620 );
    ( counters 590838 199472 17475 19968 115,
      counters 167639 4476 21526 448 157, 38491 );
  ]

(* Exact ([mip_slack = 0]) ILP-PTAC on the family: each search runs to
   the 2,000-node limit, so the bound falls back to the LP relaxation;
   the counts cover the searches and the relaxation solves. *)
let test_contention_models_work () =
  let options =
    { Contention.Ilp_ptac.default_options with Contention.Ilp_ptac.mip_slack = 0 }
  in
  Runtime.Solve_cache.clear ();
  check_work
    [ ("ilp.bb.nodes", 6003); ("ilp.simplex.pivots", 3941);
      ("ilp.bb.node_limit_hits", 3); ("ilp.presolve.calls", 6000);
      ("ilp.presolve.bounds_tightened", 17825); ("ilp.presolve.infeasible", 0);
      ("ilp.bb.incumbents", 4); ("ilp.bb.pruned", 2995);
      ("ilp.bb.engine_restarts", 0) ]
    (fun () ->
       List.iter
         (fun (a, b, delta) ->
            let r =
              Contention.Ilp_ptac.contention_bound_exn ~options
                ~latency:Tcsim.Machine.default_config.Tcsim.Machine.latency
                ~scenario:Platform.Scenario.scenario2 ~a ~b ()
            in
            Alcotest.(check int) "delta" delta r.Contention.Ilp_ptac.delta;
            Alcotest.(check bool) "node limit: LP bound" false
              r.Contention.Ilp_ptac.exact)
         scenario2_pairs)

(* The certified search on the same family, where up children re-solve
   their parents' states in place: every tree must replay in the
   independent checker. At the default slack each tree has five nodes;
   exact, the first two pairs finish in 9,417 and 8,175 nodes (the
   certified search does not presolve) and the third passes 10,000. *)
let test_contention_models_certified () =
  let latency = Tcsim.Machine.default_config.Tcsim.Machine.latency in
  List.iter2
    (fun (a, b, lp_bound) exact_nodes ->
       let m, _ =
         Contention.Ilp_ptac.build_model ~latency
           ~scenario:Platform.Scenario.scenario2 ~a ~b ()
       in
       let certify ~slack ~nodes =
         let s, c =
           Ilp.Branch_bound.solve_certified ~node_limit:10_000 ~slack m
         in
         (match c with
          | Ilp.Cert.Ilp { tree; _ } ->
            Alcotest.(check int) "tree nodes" nodes (Ilp.Cert.tree_nodes tree)
          | _ -> Alcotest.fail "expected a search-tree certificate");
         Alcotest.(check bool) "within the LP bound" true
           (Q.compare (Ilp.Solution.objective_exn s) (q lp_bound) <= 0);
         Alcotest.(check bool) "verified" true
           (Audit.Checker.check ~slack m s c = Audit.Checker.Verified)
       in
       certify
         ~slack:(q Contention.Ilp_ptac.default_options.Contention.Ilp_ptac.mip_slack)
         ~nodes:5;
       Option.iter (fun nodes -> certify ~slack:Q.zero ~nodes) exact_nodes)
    scenario2_pairs [ Some 9417; Some 8175; None ]

(* Tier ladder below the root. On this model the fast tier's search
   takes over its parents' states at six up children (depths 1 to 4),
   then overflows at its 14th node: the warm re-solve of a depth-3 down
   child, on its copy of a state that an up child had taken over. The
   whole search restarts on the exact tier (17 nodes), so the answer is
   the exact one: 14 + 17 nodes, 13 + 16 warm starts. *)
let test_warm_overflow_after_takeover () =
  let m = Ilp.Model.create () in
  let x0 = Ilp.Model.add_var m ~integer:true ~ub:(q 4) "x0" in
  let x1 = Ilp.Model.add_var m ~integer:true ~ub:(q 8) "x1" in
  let x2 = Ilp.Model.add_var m ~integer:true ~ub:(q 6) "x2" in
  let row name terms rhs =
    Ilp.Model.add_constraint m ~name (Ilp.Linexpr.of_terms terms) Ilp.Model.Le
      (q rhs)
  in
  row "c0" [ (q 1, x0); (q 3, x1); (q 5, x2) ] 25;
  row "c1" [ (q (-3), x0); (q 4, x1); (q (-3), x2) ] 34;
  row "c2" [ (q 114303, x0); (q 115003, x1); (q 67373, x2) ] 871409;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (qr 9 2, x0); (q 6, x1); (qr 9 2, x2) ]);
  (* exhaustive optimum over the box *)
  let best = ref None in
  for x0 = 0 to 4 do
    for x1 = 0 to 8 do
      for x2 = 0 to 6 do
        if x0 + (3 * x1) + (5 * x2) <= 25
        && (-3 * x0) + (4 * x1) - (3 * x2) <= 34
        && (114303 * x0) + (115003 * x1) + (67373 * x2) <= 871409
        then begin
          let obj = Q.div (q ((9 * x0) + (12 * x1) + (9 * x2))) (q 2) in
          match !best with
          | Some b when Q.compare b obj >= 0 -> ()
          | _ -> best := Some obj
        end
      done
    done
  done;
  check_work
    [ ("ilp.bb.engine_restarts", 1); ("ilp.bb.nodes", 31);
      ("ilp.bb.warm_starts", 29) ]
    (fun () ->
       check_opt "exact optimum" (Option.get !best) (Ilp.Branch_bound.solve m))

(* The rounding heuristic floors x = 1/2 to 0, which satisfies every
   row (there are none) but not the declared bound x >= 1/2: it must not
   become the incumbent. *)
let test_floor_respects_declared_bounds () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~lb:(Q.of_ints 1 2) ~ub:(q 10) "x" in
  Ilp.Model.set_objective m Ilp.Model.Minimize (Ilp.Linexpr.var x);
  let objective s = Q.to_string (Ilp.Solution.objective_exn s) in
  Alcotest.(check string) "solve" "1" (objective (Ilp.Branch_bound.solve m));
  Alcotest.(check string) "solve_certified" "1"
    (objective (fst (Ilp.Branch_bound.solve_certified m)))

(* Tier ladder: a term's minimum activity of -2^40 * 2^40 leaves the
   machine-word range in the root's presolve, so the whole search
   restarts once on the exact tier and returns its answer. *)
let test_presolve_overflow_restarts () =
  let m = Ilp.Model.create () in
  let big = Q.of_int (1 lsl 40) in
  let x = Ilp.Model.add_var m ~integer:true "x" in
  let y = Ilp.Model.add_var m ~integer:true ~ub:big "y" in
  le [ (Q.one, x); (Q.neg big, y) ] Q.zero m;
  le [ (Q.one, x); (Q.one, y) ] (Q.of_ints 21 2) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 2, x); (Q.one, y) ]);
  check_work [ ("ilp.bb.engine_restarts", 1) ] (fun () ->
      match Ilp.Branch_bound.solve m with
      | Ilp.Solution.Optimal { objective; values } ->
        (* x = 9, y = 1: x <= 2^40 y forces y >= 1 whenever x > 0 *)
        Alcotest.(check string) "objective" "19" (Q.to_string objective);
        Alcotest.(check string) "x" "9" (Q.to_string values.(x));
        Alcotest.(check string) "y" "1" (Q.to_string values.(y))
      | s -> Alcotest.failf "expected optimal, got %a" Ilp.Solution.pp s)

(* --- presolve ----------------------------------------------------------------- *)

let bounds_of m =
  let nv = Ilp.Model.num_vars m in
  ( Array.init nv (fun v -> (Ilp.Model.var_info m v).Ilp.Model.lb),
    Array.init nv (fun v -> (Ilp.Model.var_info m v).Ilp.Model.ub) )

let test_presolve_tightens () =
  (* x + y <= 5, x >= 0, y >= 0 (integers): both get ub 5; with 2x <= 7,
     integer x gets ub 3 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true "x" in
  let y = Ilp.Model.add_var m ~integer:true "y" in
  le [ (Q.one, x); (Q.one, y) ] (q 5) m;
  le [ (q 2, x) ] (q 7) m;
  let lb, ub = bounds_of m in
  (match Ilp.Presolve.tighten m ~lb ~ub with
   | Ilp.Presolve.Tightened (_, ub') ->
     Alcotest.(check string) "x <= 3" "3"
       (match ub'.(x) with Some u -> Q.to_string u | None -> "inf");
     Alcotest.(check string) "y <= 5" "5"
       (match ub'.(y) with Some u -> Q.to_string u | None -> "inf")
   | Ilp.Presolve.Infeasible -> Alcotest.fail "unexpected infeasibility")

let test_presolve_detects_infeasible () =
  (* x >= 4 and x <= 2 via constraints *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  ge [ (Q.one, x) ] (q 4) m;
  le [ (Q.one, x) ] (q 2) m;
  let lb, ub = bounds_of m in
  (match Ilp.Presolve.tighten m ~lb ~ub with
   | Ilp.Presolve.Infeasible -> ()
   | Ilp.Presolve.Tightened _ -> Alcotest.fail "expected infeasibility")

let test_presolve_equality_fixes () =
  (* 2x = 6 with x in [0, 10] pins x to 3 *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 10) "x" in
  eq [ (q 2, x) ] (q 6) m;
  let lb, ub = bounds_of m in
  (match Ilp.Presolve.tighten m ~lb ~ub with
   | Ilp.Presolve.Tightened (lb', ub') ->
     Alcotest.(check string) "lb 3" "3"
       (match lb'.(x) with Some l -> Q.to_string l | None -> "-inf");
     Alcotest.(check string) "ub 3" "3"
       (match ub'.(x) with Some u -> Q.to_string u | None -> "inf")
   | Ilp.Presolve.Infeasible -> Alcotest.fail "unexpected infeasibility")

let prop_presolve_preserves_solutions =
  QCheck.Test.make ~name:"presolve preserves every feasible integer point"
    ~count:200 (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        let lb, ub = bounds_of m in
        match Ilp.Presolve.tighten m ~lb ~ub with
        | Ilp.Presolve.Infeasible -> brute_force r = None
        | Ilp.Presolve.Tightened (lb', ub') ->
          (* every brute-force feasible point stays inside the new box *)
          let x = Array.make r.nvars 0 in
          let ok = ref true in
          let rec go i =
            if i = r.nvars then begin
              let feasible =
                List.for_all
                  (fun (coeffs, rhs) ->
                     let lhs = ref 0 in
                     Array.iteri (fun j c -> lhs := !lhs + (c * x.(j))) coeffs;
                     !lhs <= rhs)
                  r.rows
              in
              if feasible then
                Array.iteri
                  (fun v xv ->
                     let inside_l =
                       match lb'.(v) with Some l -> Q.compare l (q xv) <= 0 | None -> true
                     in
                     let inside_u =
                       match ub'.(v) with Some u -> Q.compare (q xv) u <= 0 | None -> true
                     in
                     if not (inside_l && inside_u) then ok := false)
                  x
            end
            else
              for value = 0 to r.ubounds.(i) do
                x.(i) <- value;
                go (i + 1)
              done
          in
          go 0;
          !ok)

(* Presolve oracle: random boxes (free variables, fractional bounds)
   over rows with negative and fractional coefficients and every sense,
   so rows with no, one and several infinite terms all occur. *)
let gen_presolve_case =
  let open QCheck.Gen in
  let rat = map2 Q.of_ints (int_range (-12) 12) (int_range 1 3) in
  let bound = frequency [ (1, return None); (3, map Option.some rat) ] in
  let* nvars = int_range 1 5 in
  let* integer = array_repeat nvars bool in
  let* lb = array_repeat nvars bound in
  let* width = array_repeat nvars (int_range 0 10) in
  let* ub_free = array_repeat nvars (frequency [ (1, return true); (3, return false) ]) in
  let* ub_alone = array_repeat nvars rat in
  let ub =
    Array.init nvars (fun v ->
        if ub_free.(v) then None
        else
          match lb.(v) with
          | Some l -> Some (Q.add l (q width.(v)))
          | None -> Some ub_alone.(v))
  in
  let* nrows = int_range 1 5 in
  let* rows =
    list_repeat nrows
      (triple
         (array_repeat nvars (frequency [ (1, return Q.zero); (4, rat) ]))
         (oneofl [ Ilp.Model.Le; Ilp.Model.Ge; Ilp.Model.Eq ])
         (int_range (-20) 30))
  in
  let m = Ilp.Model.create () in
  Array.iteri
    (fun v integer ->
       ignore (Ilp.Model.add_free_var m ~integer (Printf.sprintf "x%d" v)))
    integer;
  List.iter
    (fun (coeffs, sense, rhs) ->
       let terms = Array.to_list (Array.mapi (fun v c -> (c, v)) coeffs) in
       Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) sense (q rhs))
    rows;
  return (m, lb, ub)

let print_presolve_case (m, lb, ub) =
  let bound = function None -> "inf" | Some x -> Q.to_string x in
  Format.asprintf "%a@.box: %s" Ilp.Model.pp m
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun v l -> Printf.sprintf "x%d in [%s, %s]" v (bound l) (bound ub.(v)))
             lb)))

let same_box (lb, ub) (lb', ub') =
  let same a b =
    Array.length a = Array.length b
    && Array.for_all2 (Option.equal Q.equal) a b
  in
  same lb lb' && same ub ub'

(* The presolve over either scalar makes exactly the oracle's
   tightenings: same boxes (or infeasibility), same count. *)
let prop_presolve_matches_oracle =
  QCheck.Test.make ~name:"presolve matches the reference on both scalars"
    ~count:500
    (QCheck.make ~print:print_presolve_case gen_presolve_case)
    (fun (m, lb, ub) ->
       let module F = Ilp.Presolve.Make (Numeric.Scalar.Fast) in
       let tightened () =
         Obs.Metrics.value (Obs.Metrics.counter "ilp.presolve.bounds_tightened")
       in
       let expected, count = Ref_presolve.tighten m ~lb ~ub in
       let agrees outcome delta =
         delta = count
         &&
         match (outcome, expected) with
         | Ilp.Presolve.Infeasible, None -> true
         | Ilp.Presolve.Tightened (lb', ub'), Some box -> same_box (lb', ub') box
         | _ -> false
       in
       let t0 = tightened () in
       let exact = Ilp.Presolve.tighten m ~lb ~ub in
       let t1 = tightened () in
       agrees exact (t1 - t0)
       &&
       let fast_box = Array.map (Option.map Fastq.of_q) in
       match
         let rows = F.compile m in
         fst (F.tighten rows (F.every_row rows) ~lb:(fast_box lb) ~ub:(fast_box ub))
       with
       | Ilp.Presolve.Tightened (lb', ub') ->
         agrees
           (Ilp.Presolve.Tightened
              (Array.map (Option.map Fastq.to_q) lb',
               Array.map (Option.map Fastq.to_q) ub'))
           (tightened () - t1)
       | Ilp.Presolve.Infeasible -> agrees Ilp.Presolve.Infeasible (tightened () - t1)
       | exception Fastq.Overflow -> true)

(* A branch & bound child's presolve: fully presolve a box, move one of
   its bounds inward (to an integral value on an integer variable), then
   re-propagate only the rows left dirty plus the readers of the moved
   bound. That must equal a full presolve of the moved box: same boxes
   (or infeasibility), same number of tightenings. [rounds] goes down to
   1, so leftover rows are really inherited. *)
let incremental_presolve_agrees (module S : Numeric.Scalar.S)
    ((m, lb, ub), rounds, var, side, step, anchor) =
  let module P = Ilp.Presolve.Make (S) in
  let tightened () =
    Obs.Metrics.value (Obs.Metrics.counter "ilp.presolve.bounds_tightened")
  in
  let same a b =
    Array.for_all2 (Option.equal (fun x y -> S.compare x y = 0)) a b
  in
  let box = Array.map (Option.map S.of_q) in
  let rows = P.compile m in
  match P.tighten ~rounds rows (P.every_row rows) ~lb:(box lb) ~ub:(box ub) with
  | Ilp.Presolve.Infeasible, _ -> true
  | Ilp.Presolve.Tightened (lb, ub), left ->
    let var = var mod Array.length lb in
    let integer = (Ilp.Model.var_info m var).Ilp.Model.integer in
    let step = S.of_q step and anchor = S.of_q anchor in
    let lb = Array.copy lb and ub = Array.copy ub in
    (match side with
     | `Lb ->
       let x = match lb.(var) with Some l -> S.add l step | None -> anchor in
       lb.(var) <- Some (if integer then S.ceil x else x)
     | `Ub ->
       let x = match ub.(var) with Some u -> S.sub u step | None -> anchor in
       ub.(var) <- Some (if integer then S.floor x else x));
    let t0 = tightened () in
    let incremental = fst (P.tighten ~rounds rows (P.moved rows left ~var side) ~lb ~ub) in
    let t1 = tightened () in
    let full = fst (P.tighten ~rounds rows (P.every_row rows) ~lb ~ub) in
    t1 - t0 = tightened () - t1
    &&
    match (incremental, full) with
    | Ilp.Presolve.Infeasible, Ilp.Presolve.Infeasible -> true
    | Ilp.Presolve.Tightened (l, u), Ilp.Presolve.Tightened (l', u') ->
      same l l' && same u u'
    | _ -> false

let gen_incremental_case =
  let open QCheck.Gen in
  let pos_rat = map2 Q.of_ints (int_range 1 24) (int_range 1 3) in
  let* case = gen_presolve_case in
  let* rounds = int_range 1 3 in
  let* var = nat in
  let* side = oneofl [ `Lb; `Ub ] in
  let* step = pos_rat in
  let* anchor = map2 Q.of_ints (int_range (-12) 12) (int_range 1 3) in
  return (case, rounds, var, side, step, anchor)

let print_incremental_case (case, rounds, var, side, step, anchor) =
  Printf.sprintf "%s\nrounds %d, var %d, %s moved by %s (or to %s)"
    (print_presolve_case case) rounds var
    (match side with `Lb -> "lb" | `Ub -> "ub")
    (Q.to_string step) (Q.to_string anchor)

let prop_incremental_presolve =
  QCheck.Test.make
    ~name:"incremental presolve equals a full one on both scalars" ~count:500
    (QCheck.make ~print:print_incremental_case gen_incremental_case)
    (fun case ->
       incremental_presolve_agrees (module Numeric.Scalar.Exact) case
       &&
       match incremental_presolve_agrees (module Numeric.Scalar.Fast) case with
       | agrees -> agrees
       | exception Fastq.Overflow -> true)

(* [solve] presolves every node and the certified search never does, so
   their answers pin presolve to skipping work without moving the
   optimum. *)
let prop_presolve_same_optimum =
  QCheck.Test.make ~name:"branch&bound optimum unchanged by presolve" ~count:100
    (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        let with_p = Ilp.Branch_bound.solve m in
        let without, _ = Ilp.Branch_bound.solve_certified m in
        match (with_p, without) with
        | Ilp.Solution.Optimal { objective = a; _ }, Ilp.Solution.Optimal { objective = b; _ }
          -> Q.equal a b
        | Ilp.Solution.Infeasible, Ilp.Solution.Infeasible -> true
        | _ -> false)

(* --- LP text format -------------------------------------------------------- *)

let sample_model () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~ub:(q 10) "x" in
  let y = Ilp.Model.add_var m ~lb:(qr (-5) 2) ~ub:(q 4) "y" in
  let z = Ilp.Model.add_free_var m "z" in
  le [ (qr 3 4, x); (Q.one, y) ] (q 7) m;
  ge [ (Q.one, x); (Q.neg Q.one, z) ] (q (-2)) m;
  eq [ (Q.one, y); (Q.one, z) ] (q 3) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 2, x); (Q.one, y); (qr 1 2, z) ]);
  m

let test_lp_format_emits_sections () =
  let text = Ilp.Lp_format.to_string (sample_model ()) in
  List.iter
    (fun needle ->
       let found =
         let nh = String.length text and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
         go 0
       in
       Alcotest.(check bool) ("contains " ^ needle) true found)
    [ "Maximize"; "Subject To"; "Bounds"; "Generals"; "End"; "0.75 x"; "z free"; "-2.5" ]

let test_lp_format_rejects_nondecimal () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  le [ (qr 1 3, x) ] Q.one m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  (try
     ignore (Ilp.Lp_format.to_string m);
     Alcotest.fail "1/3 must be rejected"
   with Invalid_argument _ -> ())

let test_lp_format_canonical_emit_stable () =
  (* twin builds of the sample model — variables created in the opposite
     order, one row scaled — emit byte-identical canonical text *)
  let twin () =
    let m = Ilp.Model.create () in
    let z = Ilp.Model.add_free_var m "zz" in
    let y = Ilp.Model.add_var m ~lb:(qr (-5) 2) ~ub:(q 4) "yy" in
    let x = Ilp.Model.add_var m ~integer:true ~ub:(q 10) "xx" in
    eq [ (Q.one, y); (Q.one, z) ] (q 3) m;
    ge [ (q 2, x); (q (-2), z) ] (q (-4)) m;
    (* row scaled by 2 *)
    le [ (qr 3 4, x); (Q.one, y) ] (q 7) m;
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (q 2, x); (Q.one, y); (qr 1 2, z) ]);
    m
  in
  Alcotest.(check string) "structural twins emit identically"
    (Ilp.Lp_format.to_canonical_string (sample_model ()))
    (Ilp.Lp_format.to_canonical_string (twin ()))

let test_lp_format_canonical_golden () =
  let expected =
    let ic = open_in "golden/canonical_sample.lp" in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Alcotest.(check string) "golden canonical LP text" expected
    (Ilp.Lp_format.to_canonical_string (sample_model ()))

(* --- canonicalization ------------------------------------------------------- *)

let test_canonical_isomorphism () =
  (* solving the canonical representative and mapping values back through
     the permutation solves the original *)
  let m = sample_model () in
  let canon = Ilp.Canonical.of_model m in
  (match Ilp.Simplex.solve (Ilp.Canonical.model canon) with
   | Ilp.Solution.Optimal { objective; values } ->
     let back = Ilp.Canonical.restore_values canon values in
     (match
        Ilp.Model.check_feasible ~tol_integrality:false m (fun v -> back.(v))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "mapped-back values infeasible: %s" e);
     (match Ilp.Simplex.solve m with
      | Ilp.Solution.Optimal { objective = direct; _ } ->
        Alcotest.(check string) "same optimum" (Q.to_string direct)
          (Q.to_string objective)
      | _ -> Alcotest.fail "original unexpectedly not optimal")
   | _ -> Alcotest.fail "canonical model unexpectedly not optimal")

let test_canonical_distinguishes_programs () =
  let build rhs =
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true ~ub:(q 9) "x" in
    le [ (Q.one, x) ] rhs m;
    Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
    Ilp.Canonical.structure (Ilp.Canonical.of_model m)
  in
  Alcotest.(check bool) "different rhs, different structure" false
    (String.equal (build (q 5)) (build (q 6)))

(* Twin with rows re-ordered and positively re-scaled (variable creation
   order kept): canonicalization must erase both differences. Variable
   re-orderings additionally canonicalize whenever fingerprints are
   distinct — covered by the unit tests above; ties fall back to
   creation order by design, so the property sticks to row twins. *)
let to_model_row_twin r =
  let m = Ilp.Model.create () in
  let vars =
    Array.init r.nvars (fun i ->
        Ilp.Model.add_var m ~integer:true ~ub:(q r.ubounds.(i))
          (Printf.sprintf "t%d" i))
  in
  List.iteri
    (fun k (coeffs, rhs) ->
       let s = q ((k mod 3) + 1) in
       let terms =
         Array.to_list
           (Array.mapi (fun j c -> (Q.mul s (q c), vars.(j))) coeffs)
       in
       le terms (Q.mul s (q rhs)) m)
    (List.rev r.rows);
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms
       (Array.to_list (Array.mapi (fun j c -> (q c, vars.(j))) r.obj)));
  m

let prop_canonical_row_twins_collide =
  QCheck.Test.make ~name:"canonical structure ignores row order and scaling"
    ~count:200 (QCheck.make gen_rand_ilp) (fun r ->
        String.equal
          (Ilp.Canonical.structure (Ilp.Canonical.of_model (to_model r)))
          (Ilp.Canonical.structure (Ilp.Canonical.of_model (to_model_row_twin r))))

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonicalization is a fixpoint" ~count:200
    (QCheck.make gen_rand_ilp) (fun r ->
        let c = Ilp.Canonical.of_model (to_model r) in
        String.equal
          (Ilp.Canonical.structure c)
          (Ilp.Canonical.structure (Ilp.Canonical.of_model (Ilp.Canonical.model c))))

(* Models for the oracle property below: negative and fractional
   coefficients (fractions and one coefficient beyond a native int take
   the bignum scaling path), free and one-sided bounds, and each model
   paired with a twin whose variables are renamed and created in another
   order, whose rows are reordered and whose rows are scaled. *)
let gen_canon_pair =
  let open QCheck.Gen in
  (* mostly ones, so fingerprints tie often and every field of one
     decides the variable order *)
  let value =
    frequency
      [
        (6, pure Q.one);
        (3, map q (int_range (-3) 3));
        (1, oneofl [ qr 1 2; qr (-3) 4; qr 5 3; qr (-7) 6 ]);
        (1, pure (Q.of_string "1180591620717411303424"));
      ]
  in
  let bound =
    frequency
      [ (3, pure None); (3, pure (Some Q.zero)); (1, pure (Some Q.one)); (1, pure (Some (qr (-1) 2))) ]
  in
  let integer = frequency [ (4, pure true); (1, pure false) ] in
  let* nvars = int_range 1 6 in
  let* vars = array_repeat nvars (triple integer bound bound) in
  let row =
    triple
      (list_size (frequency [ (1, pure 0); (8, int_range 1 3); (1, pure 4) ])
         (pair value (int_range 0 (nvars - 1))))
      (oneofl [ Ilp.Model.Le; Ilp.Model.Ge; Ilp.Model.Eq ])
      value
  in
  let* rows = list_size (int_range 0 7) row in
  let* obj = list_size (int_range 0 nvars) (pair value (int_range 0 (nvars - 1))) in
  let* perm = map Array.of_list (shuffle_l (List.init nvars Fun.id)) in
  let* row_order = shuffle_l (List.mapi (fun i r -> (i, r)) rows) in
  let* scales = list_repeat (List.length rows) (oneofl [ q 1; q 2; qr 1 3; q (-1) ]) in
  let build ~perm ~prefix rows =
    let m = Ilp.Model.create () in
    (* creation order [perm]: original variable [v] becomes index [ix.(v)] *)
    let ix = Array.make nvars 0 in
    Array.iteri
      (fun k v ->
         let integer, lb, ub = vars.(v) in
         let x = Ilp.Model.add_free_var m ~integer (Printf.sprintf "%s%d" prefix k) in
         Ilp.Model.set_var_bounds m x ~lb ~ub;
         ix.(v) <- x)
      perm;
    let terms ts = Ilp.Linexpr.of_terms (List.map (fun (c, v) -> (c, ix.(v))) ts) in
    List.iter
      (fun (s, (ts, sense, rhs)) ->
         let sense =
           match sense with
           | Ilp.Model.Le when Q.sign s < 0 -> Ilp.Model.Ge
           | Ilp.Model.Ge when Q.sign s < 0 -> Ilp.Model.Le
           | sense -> sense
         in
         Ilp.Model.add_constraint m
           (Ilp.Linexpr.scale s (terms ts))
           sense (Q.mul s rhs))
      rows;
    Ilp.Model.set_objective m Ilp.Model.Maximize (terms obj);
    m
  in
  return
    ( build ~perm:(Array.init nvars Fun.id) ~prefix:"x"
        (List.map (fun r -> (Q.one, r)) rows),
      build ~perm ~prefix:"y"
        (List.map2 (fun s (_, r) -> (s, r)) scales row_order) )

(* everything about a model, names included *)
let model_text m =
  String.concat " "
    (Ilp.Model.canonical m
     :: List.init (Ilp.Model.num_vars m) (Ilp.Model.var_name m)
     @ List.map (fun (c : Ilp.Model.constr) -> c.cname) (Ilp.Model.constraints m))

let prop_canonical_matches_oracle =
  QCheck.Test.make ~name:"canonical structure and permutation = Printf oracle"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> model_text a ^ "\n---\n" ^ model_text b)
       gen_canon_pair)
    (fun (a, b) ->
       List.for_all
         (fun m ->
            let c = Ilp.Canonical.of_model m in
            let ref_model, ref_forward, ref_structure = Ref_canonical.of_model m in
            let forward =
              Ilp.Canonical.restore_values c
                (Array.init (Ilp.Model.num_vars m) Q.of_int)
            in
            String.equal (Ilp.Canonical.structure c) ref_structure
            && Array.for_all2
                 (fun k r -> Q.equal k (Q.of_int r))
                 forward ref_forward
            && String.equal (model_text (Ilp.Canonical.model c)) (model_text ref_model))
         [ a; b ])

(* --- warm-started engine ----------------------------------------------------- *)

let full_box r =
  ( Array.make r.nvars (Some Q.zero),
    Array.init r.nvars (fun i -> Some (q r.ubounds.(i))) )

let same_solution a b =
  match (a, b) with
  | ( Ilp.Solution.Optimal { objective = x; _ },
      Ilp.Solution.Optimal { objective = y; _ } ) ->
    Q.equal x y
  | Ilp.Solution.Infeasible, Ilp.Solution.Infeasible -> true
  | Ilp.Solution.Unbounded, Ilp.Solution.Unbounded -> true
  | _ -> false

(* Random bound-tightening chains: exactly the boxes branch & bound and
   presolve hand the engine. Each step tightens one variable's lower or
   upper bound (possibly emptying the box); the warm dual re-solve from
   the parent state must agree with a cold solve of the same box. *)
let gen_warm_chain =
  let open QCheck.Gen in
  let* nvars = int_range 2 5 in
  let* ubounds = array_repeat nvars (int_range 1 6) in
  let* nrows = int_range 1 6 in
  let* rows =
    list_repeat nrows
      (pair (array_repeat nvars (int_range (-5) 5)) (int_range (-10) 30))
  in
  let* obj = array_repeat nvars (int_range (-5) 8) in
  let* steps =
    list_size (int_range 1 6)
      (triple (int_range 0 100) bool (int_range 1 3))
  in
  return ({ nvars; ubounds; rows; obj }, steps)

let run_warm_chain (module E : Ilp.Simplex.ENGINE) (r, steps) =
  let m = to_model r in
  let lb, ub = full_box r in
  let box = Array.map (Option.map E.S.of_q) in
  let answer s = Ilp.Solution.map E.S.to_q s in
  let st0, s0, _ = E.root_certified m ~lb:(box lb) ~ub:(box ub) in
  if not (same_solution (answer s0) (Ref_simplex.solve_with_bounds m ~lb ~ub))
  then false
  else begin
    match st0 with
    | None -> true
    | Some st ->
      let st = ref st in
      let ok = ref true in
      (try
         List.iter
           (fun (vi, tighten_lb, amount) ->
              let v = vi mod r.nvars in
              (if tighten_lb then
                 match lb.(v) with
                 | Some l -> lb.(v) <- Some (Q.add l (q amount))
                 | None -> assert false
               else
                 match ub.(v) with
                 | Some u -> ub.(v) <- Some (Q.sub u (q amount))
                 | None -> assert false);
              let child = E.branch !st in
              let warm, _ =
                E.reoptimize_certified child ~lb:(box lb) ~ub:(box ub)
              in
              let cold = Ref_simplex.solve_with_bounds m ~lb ~ub in
              if not (same_solution (answer warm) cold) then begin
                ok := false;
                raise Exit
              end;
              match warm with
              | Ilp.Solution.Optimal _ -> st := child
              | _ -> raise Exit)
           steps
       with Exit -> ());
      !ok
  end

let prop_warm_exact_matches_cold =
  QCheck.Test.make
    ~name:"exact warm dual re-solves match cold solves along bound chains"
    ~count:150 (QCheck.make gen_warm_chain)
    (run_warm_chain (module Ilp.Simplex.Exact_engine))

let prop_warm_fast_matches_cold =
  QCheck.Test.make
    ~name:"fast warm dual re-solves match cold solves or fall back"
    ~count:150 (QCheck.make gen_warm_chain) (fun case ->
        match run_warm_chain (module Ilp.Simplex.Fast_engine) case with
        | ok -> ok
        | exception Fastq.Overflow -> true)

(* --- fast tier vs exact tier -------------------------------------------------- *)

let rec pow10 e = if e = 0 then 1 else 10 * pow10 (e - 1)

(* Mixed-magnitude coefficients (up to 10^14) push the int64 fast path
   into overflow on some instances; whenever it answers instead of
   raising, the answer must be the exact one. *)
let gen_scaled_lp =
  let open QCheck.Gen in
  let* r = gen_rand_ilp_wide in
  let* exps =
    list_repeat (List.length r.rows) (array_repeat r.nvars (int_range 0 14))
  in
  return (r, exps)

let to_model_scaled (r, exps) =
  let m = Ilp.Model.create () in
  let vars =
    Array.init r.nvars (fun i ->
        Ilp.Model.add_var m ~integer:true ~ub:(q r.ubounds.(i))
          (Printf.sprintf "s%d" i))
  in
  List.iter2
    (fun (coeffs, rhs) es ->
       let terms =
         Array.to_list
           (Array.mapi
              (fun j c -> (q (c * pow10 es.(j)), vars.(j)))
              coeffs)
       in
       le terms (q rhs) m)
    r.rows exps;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms
       (Array.to_list (Array.mapi (fun j c -> (q c, vars.(j))) r.obj)));
  m

let prop_fast_tier_exact_or_falls_back =
  QCheck.Test.make
    ~name:"fast tier equals exact tier or raises (mixed magnitudes)"
    ~count:150 (QCheck.make gen_scaled_lp) (fun case ->
        let r, _ = case in
        let m = to_model_scaled case in
        let lb, ub = full_box r in
        let module F = Ilp.Simplex.Fast_engine in
        let module E = Ilp.Simplex.Exact_engine in
        let fast_box = Array.map (Option.map F.S.of_q) in
        match F.root_certified m ~lb:(fast_box lb) ~ub:(fast_box ub) with
        | exception Fastq.Overflow -> true
        | _, sf, _ ->
          let exact_box = Array.map (Option.map E.S.of_q) in
          let _, se, _ =
            E.root_certified m ~lb:(exact_box lb) ~ub:(exact_box ub)
          in
          same_solution (Ilp.Solution.map F.S.to_q sf)
            (Ilp.Solution.map E.S.to_q se))

(* The public ladder on the same mixed-magnitude models, where the fast
   tier overflows on about a third of the instances: whichever tier
   answers, the answer is the reference solver's. *)
let prop_ladder_matches_reference =
  QCheck.Test.make
    ~name:"tier ladder equals the reference simplex (mixed magnitudes)"
    ~count:150 (QCheck.make gen_scaled_lp) (fun case ->
        let r, _ = case in
        let m = to_model_scaled case in
        let lb, ub = full_box r in
        same_solution
          (Ilp.Simplex.solve (to_model_scaled case))
          (Ref_simplex.solve_with_bounds m ~lb ~ub))

let test_bounds_length_mismatch () =
  let m = Ilp.Model.create () in
  let _ = Ilp.Model.add_var m ~ub:(q 3) "x" in
  let _ = Ilp.Model.add_var m ~ub:(q 3) "y" in
  Ilp.Model.set_objective m Ilp.Model.Maximize Ilp.Linexpr.zero;
  List.iter
    (fun (label, lb, ub) ->
       match Ilp.Simplex.solve_with_bounds_certified m ~lb ~ub with
       | _ -> Alcotest.failf "%s: expected Invalid_argument" label
       | exception Invalid_argument _ -> ())
    [
      ("short lb", [| None |], [| None; None |]);
      ("long ub", [| None; None |], [| None; None; None |]);
    ]

let () =
  Alcotest.run "ilp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic maximisation" `Quick test_lp_basic;
          Alcotest.test_case "fractional optimum" `Quick test_lp_fractional_optimum;
          Alcotest.test_case "minimisation" `Quick test_lp_minimize;
          Alcotest.test_case "equality constraints" `Quick test_lp_equality;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "boxed variables" `Quick test_lp_upper_bounds;
          Alcotest.test_case "free variables" `Quick test_lp_free_variable;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "degenerate (Bland)" `Quick test_lp_degenerate;
          Alcotest.test_case "constant folding" `Quick test_lp_constant_in_expr;
          Alcotest.test_case "objective constant" `Quick test_lp_objective_constant;
          Alcotest.test_case "bound-array length mismatch" `Quick
            test_bounds_length_mismatch;
        ] );
      ( "branch-bound",
        [
          Alcotest.test_case "LP vs ILP gap" `Quick test_ilp_rounding_matters;
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "infeasible ILP" `Quick test_ilp_infeasible;
          Alcotest.test_case "diophantine equality" `Quick test_ilp_equality_feasible;
          Alcotest.test_case "mixed integer" `Quick test_ilp_mixed;
          Alcotest.test_case "solution feasibility" `Quick test_ilp_solution_feasibility;
          Alcotest.test_case "deep-tree work counters" `Quick test_solver_models_work;
          Alcotest.test_case "contention-shaped work counters" `Quick
            test_contention_models_work;
          Alcotest.test_case "presolve overflow restarts exactly" `Quick
            test_presolve_overflow_restarts;
          Alcotest.test_case "warm overflow after a takeover restarts exactly"
            `Quick test_warm_overflow_after_takeover;
          Alcotest.test_case "contention-shaped certified trees" `Quick
            test_contention_models_certified;
          Alcotest.test_case "rounding respects declared bounds" `Quick
            test_floor_respects_declared_bounds;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "tightens bounds" `Quick test_presolve_tightens;
          Alcotest.test_case "detects infeasibility" `Quick test_presolve_detects_infeasible;
          Alcotest.test_case "equality fixes variables" `Quick test_presolve_equality_fixes;
          QCheck_alcotest.to_alcotest prop_presolve_preserves_solutions;
          QCheck_alcotest.to_alcotest prop_presolve_same_optimum;
          QCheck_alcotest.to_alcotest prop_presolve_matches_oracle;
          QCheck_alcotest.to_alcotest prop_incremental_presolve;
        ] );
      ( "lp-format",
        [
          Alcotest.test_case "sections" `Quick test_lp_format_emits_sections;
          Alcotest.test_case "rejects 1/3" `Quick test_lp_format_rejects_nondecimal;
          Alcotest.test_case "canonical emit stable across twins" `Quick
            test_lp_format_canonical_emit_stable;
          Alcotest.test_case "canonical emit golden file" `Quick
            test_lp_format_canonical_golden;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "isomorphism round-trip" `Quick
            test_canonical_isomorphism;
          Alcotest.test_case "distinguishes programs" `Quick
            test_canonical_distinguishes_programs;
          QCheck_alcotest.to_alcotest prop_canonical_row_twins_collide;
          QCheck_alcotest.to_alcotest prop_canonical_idempotent;
          QCheck_alcotest.to_alcotest prop_canonical_matches_oracle;
        ] );
      ( "warm-start",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_warm_exact_matches_cold;
            prop_warm_fast_matches_cold;
            prop_fast_tier_exact_or_falls_back;
            prop_ladder_matches_reference;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bb_matches_brute_force;
            prop_bb_solution_feasible;
            prop_lp_bounds_ilp;
            prop_lp_feasible_answers;
            prop_wide_lp_bounds_ilp;
            prop_wide_bb_matches_brute_force;
          ] );
    ]
