(* Tests for the audit layer.

   Arithmetic: differential tests of the checker's from-scratch
   integers (Zed) and rationals (Ratio) against native ints and
   Numeric.Bigint/Q — the two implementations share no code, so
   agreement on random inputs is real evidence.
   Checker: every verdict kind on hand-built programs, plus one test
   per mutation class (wrong dual, tampered objective, truncated tree,
   slack mismatch) that must be rejected.
   Certificates: JSON round-trips are exact (Cert.equal), and on random
   models the certified entry points agree with the plain ones while
   producing certificates the checker accepts. *)

open Numeric

let q = Q.of_int

module Z = Audit.Zed
module R = Audit.Ratio
module C = Audit.Checker

(* --- Zed: independent integers vs native ints and Bigint -------------------- *)

let test_zed_strings () =
  List.iter
    (fun s ->
       match Z.of_string s with
       | Some z -> Alcotest.(check string) ("round-trip " ^ s) s (Z.to_string z)
       | None -> Alcotest.failf "of_string rejected %s" s)
    [ "0"; "7"; "-7"; "10000"; "-10000"; "123456789012345678901234567890" ];
  List.iter
    (fun s ->
       Alcotest.(check bool) ("rejects " ^ s) true (Z.of_string s = None))
    [ ""; "-"; "+5"; "1 2"; "12a"; "0x10"; "1.5" ]

let gen_small_int = QCheck.int_range (-1_000_000) 1_000_000

let prop_zed_matches_int =
  QCheck.Test.make ~name:"Zed ring ops match native ints" ~count:1000
    QCheck.(pair gen_small_int gen_small_int)
    (fun (a, b) ->
       let za = Z.of_int a and zb = Z.of_int b in
       Z.to_string (Z.add za zb) = string_of_int (a + b)
       && Z.to_string (Z.sub za zb) = string_of_int (a - b)
       && Z.to_string (Z.mul za zb) = string_of_int (a * b)
       && Z.to_string (Z.neg za) = string_of_int (-a)
       && Z.compare za zb = compare a b
       && Z.sign za = compare a 0)

let prop_zed_divmod_matches_int =
  (* both Zed.divmod and OCaml's (/), (mod) truncate toward zero with
     the remainder carrying the dividend's sign *)
  QCheck.Test.make ~name:"Zed divmod matches native ints" ~count:1000
    QCheck.(pair gen_small_int (int_range (-9999) 9999))
    (fun (a, b) ->
       QCheck.assume (b <> 0);
       let dq, dr = Z.divmod (Z.of_int a) (Z.of_int b) in
       Z.to_string dq = string_of_int (a / b)
       && Z.to_string dr = string_of_int (a mod b))

let gen_digits =
  (* a random decimal literal far beyond the native-int range *)
  let open QCheck.Gen in
  let* neg = bool in
  let* first = int_range 1 9 in
  let* rest = list_size (int_range 10 40) (int_range 0 9) in
  return
    ((if neg then "-" else "")
     ^ String.concat "" (List.map string_of_int (first :: rest)))

let prop_zed_matches_bigint =
  QCheck.Test.make ~name:"Zed big ops match Numeric.Bigint" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_digits gen_digits))
    (fun (sa, sb) ->
       let za = Option.get (Z.of_string sa) and zb = Option.get (Z.of_string sb) in
       let ba = Bigint.of_string sa and bb = Bigint.of_string sb in
       Z.to_string (Z.mul za zb) = Bigint.to_string (Bigint.mul ba bb)
       && Z.to_string (Z.add za zb) = Bigint.to_string (Bigint.add ba bb)
       && Z.to_string (Z.sub za zb) = Bigint.to_string (Bigint.sub ba bb)
       && Z.compare za zb = Bigint.compare ba bb)

(* --- Ratio: independent rationals vs Numeric.Q ------------------------------ *)

let gen_frac =
  QCheck.(pair (int_range (-500) 500) (int_range (-60) 60))

let prop_ratio_matches_q =
  QCheck.Test.make ~name:"Ratio field ops match Numeric.Q" ~count:1000
    QCheck.(pair gen_frac gen_frac)
    (fun ((a, b), (c, d)) ->
       QCheck.assume (b <> 0 && d <> 0);
       let qa = Q.of_ints a b and qb = Q.of_ints c d in
       let ra = R.of_q qa and rb = R.of_q qb in
       R.equal (R.add ra rb) (R.of_q (Q.add qa qb))
       && R.equal (R.sub ra rb) (R.of_q (Q.sub qa qb))
       && R.equal (R.mul ra rb) (R.of_q (Q.mul qa qb))
       && R.compare ra rb = Q.compare qa qb
       && R.sign ra = Q.sign qa)

let prop_ratio_floor_matches_int =
  QCheck.Test.make ~name:"Ratio floor matches integer floor division"
    ~count:1000 gen_frac (fun (a, b) ->
        QCheck.assume (b <> 0);
        (* normalise to a positive denominator, then floor-divide *)
        let a, b = if b < 0 then (-a, -b) else (a, b) in
        let fdiv =
          let d = a / b in
          if a mod b <> 0 && a < 0 then d - 1 else d
        in
        let r = R.of_q (Q.of_ints a b) in
        R.equal (R.floor r) (R.of_int fdiv)
        && R.is_integer r = (a mod b = 0))

(* --- checker: verdicts on hand-built programs -------------------------------- *)

let le terms rhs m =
  Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Le rhs

let ge terms rhs m =
  Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms) Ilp.Model.Ge rhs

let check_verified msg = function
  | C.Verified -> ()
  | C.Failed reason -> Alcotest.failf "%s: unexpectedly failed: %s" msg reason

let check_failed msg = function
  | C.Verified -> Alcotest.failf "%s: unexpectedly verified" msg
  | C.Failed _ -> ()

let wyndor () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2,6) *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  le [ (Q.one, x) ] (q 4) m;
  le [ (q 2, y) ] (q 12) m;
  le [ (q 3, x); (q 2, y) ] (q 18) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 3, x); (q 5, y) ]);
  m

let test_checker_lp_optimal () =
  let m = wyndor () in
  let s, c = Ilp.Simplex.solve_certified m in
  check_verified "wyndor" (C.check m s (Ilp.Cert.Lp c));
  (* minimisation answers are certified in the max frame *)
  let m2 = Ilp.Model.create () in
  let x2 = Ilp.Model.add_var m2 "x" in
  ge [ (Q.one, x2) ] (q 3) m2;
  Ilp.Model.set_objective m2 Ilp.Model.Minimize
    (Ilp.Linexpr.of_terms [ (q 3, x2) ]);
  let s2, c2 = Ilp.Simplex.solve_certified m2 in
  check_verified "minimise" (C.check m2 s2 (Ilp.Cert.Lp c2))

let test_checker_lp_infeasible () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~ub:(q 2) "x" in
  ge [ (Q.one, x) ] (q 4) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  let s, c = Ilp.Simplex.solve_certified m in
  Alcotest.(check bool) "infeasible" true (s = Ilp.Solution.Infeasible);
  check_verified "farkas" (C.check m s (Ilp.Cert.Lp c))

let test_checker_lp_unbounded () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m "x" in
  let y = Ilp.Model.add_var m "y" in
  le [ (Q.one, x); (Q.of_int (-1), y) ] (q 1) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (Q.one, x); (Q.one, y) ]);
  let s, c = Ilp.Simplex.solve_certified m in
  Alcotest.(check bool) "unbounded" true (s = Ilp.Solution.Unbounded);
  check_verified "ray" (C.check m s (Ilp.Cert.Lp c))

let knapsack () =
  (* max 8a + 11b + 6c st 5a + 7b + 4c <= 14, binary -> 19 *)
  let m = Ilp.Model.create () in
  let bvar n = Ilp.Model.add_var m ~integer:true ~ub:Q.one n in
  let a = bvar "a" and b = bvar "b" and c = bvar "c" in
  le [ (q 5, a); (q 7, b); (q 4, c) ] (q 14) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 8, a); (q 11, b); (q 6, c) ]);
  m

let test_checker_ilp_optimal () =
  let m = knapsack () in
  let s, c = Ilp.Branch_bound.solve_certified m in
  check_verified "knapsack" (C.check m s c)

let test_checker_ilp_infeasible () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~ub:(q 5) "x" in
  (* 2x = 3 has no integer solution inside [0, 5] *)
  Ilp.Model.add_constraint m
    (Ilp.Linexpr.var ~coeff:(q 2) x)
    Ilp.Model.Eq (q 3);
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
  let s, c = Ilp.Branch_bound.solve_certified m in
  Alcotest.(check bool) "infeasible" true (s = Ilp.Solution.Infeasible);
  check_verified "diophantine" (C.check m s c)

(* --- checker: every mutation class must be rejected -------------------------- *)

let test_mutation_wrong_dual () =
  let m = wyndor () in
  let s, cert = Ilp.Simplex.solve_certified m in
  match cert with
  | Ilp.Cert.Optimal_cert { duals } ->
    Array.iteri
      (fun i _ ->
         let duals = Array.copy duals in
         duals.(i) <- Q.add duals.(i) (Q.of_ints 1 3);
         check_failed
           (Printf.sprintf "dual %d nudged" i)
           (C.check m s (Ilp.Cert.Lp (Ilp.Cert.Optimal_cert { duals }))))
      duals
  | _ -> Alcotest.fail "expected an optimal certificate"

let test_mutation_tampered_objective () =
  let m = knapsack () in
  let s, cert = Ilp.Branch_bound.solve_certified m in
  match (s, cert) with
  | Ilp.Solution.Optimal { objective; values }, c ->
    check_failed "objective bumped"
      (C.check m
         (Ilp.Solution.Optimal { objective = Q.add objective Q.one; values })
         c);
    let values = Array.copy values in
    values.(0) <- Q.add values.(0) Q.one;
    check_failed "value tampered"
      (C.check m (Ilp.Solution.Optimal { objective; values }) c)
  | _ -> Alcotest.fail "expected an optimal certified answer"

let test_mutation_truncated_tree () =
  (* a fractional relaxation with a non-integral objective (so the
     integral-bound prune cannot close the root), forcing the certified
     search to branch; replacing a subtree with a vacuous Farkas leaf
     must be caught by the replay *)
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true "x" in
  let y = Ilp.Model.add_var m ~integer:true "y" in
  le [ (q (-2), x); (q 2, y) ] Q.one m;
  le [ (q 2, x); (q 2, y) ] (q 9) m;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.var ~coeff:(Q.of_ints 1 2) y);
  let s, cert = Ilp.Branch_bound.solve_certified m in
  match cert with
  | Ilp.Cert.Ilp { islack; tree = Ilp.Cert.Branch b } ->
    let vacuous =
      Ilp.Cert.Leaf_infeasible (Ilp.Cert.Farkas_ray [| Q.zero; Q.zero |])
    in
    check_failed "down subtree lopped"
      (C.check m s
         (Ilp.Cert.Ilp { islack; tree = Ilp.Cert.Branch { b with down = vacuous } }));
    check_failed "up subtree lopped"
      (C.check m s
         (Ilp.Cert.Ilp { islack; tree = Ilp.Cert.Branch { b with up = vacuous } }))
  | _ -> Alcotest.fail "expected a branching certificate"

let test_mutation_slack_mismatch () =
  let m = knapsack () in
  let s, c = Ilp.Branch_bound.solve_certified ~slack:Q.one m in
  check_verified "matching slack" (C.check ~slack:Q.one m s c);
  check_failed "mismatched slack" (C.check ~slack:(q 2) m s c)

(* --- certificates: JSON round-trips ------------------------------------------- *)

let test_cert_string_garbage () =
  List.iter
    (fun s ->
       Alcotest.(check bool) ("rejects " ^ s) true (Ilp.Cert.of_string s = None))
    [
      "";
      "{}";
      "[1]";
      "{\"kind\": \"wat\"}";
      "{\"kind\": \"lp\"}";
      "{\"kind\": \"ilp\", \"islack\": \"x\", \"tree\": 3}";
    ]

(* --- random models: certified paths agree and verify -------------------------- *)

(* small random bounded ILPs, in the shape of test_ilp's generator *)
type rand_ilp = {
  nvars : int;
  ubounds : int array;
  rows : (int array * int) list;
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

(* the certified search skips presolve, so on a degenerate instance it
   may land on a different optimal vertex — the constructor and the
   objective are what must agree with the plain path *)
let same_answer a b =
  match (a, b) with
  | Ilp.Solution.Optimal { objective = x; _ },
    Ilp.Solution.Optimal { objective = y; _ } ->
    Q.equal x y
  | a, b -> a = b

let prop_certified_ilp_verifies =
  QCheck.Test.make ~name:"certified ILP answers verify and match plain solve"
    ~count:200 (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        let s, c = Ilp.Branch_bound.solve_certified m in
        same_answer s (Ilp.Branch_bound.solve (to_model r))
        && C.check m s c = C.Verified)

let prop_certified_lp_verifies =
  QCheck.Test.make ~name:"certified LP answers verify and match plain solve"
    ~count:200 (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        let s, c = Ilp.Simplex.solve_certified m in
        Ilp.Solution.equal s (Ilp.Simplex.solve (to_model r))
        && C.check m s (Ilp.Cert.Lp c) = C.Verified)

let prop_cert_json_roundtrip =
  QCheck.Test.make ~name:"certificate JSON round-trips exactly" ~count:200
    (QCheck.make gen_rand_ilp) (fun r ->
        let m = to_model r in
        let _, c = Ilp.Branch_bound.solve_certified m in
        match Ilp.Cert.of_string (Ilp.Cert.to_string c) with
        | Some c' -> Ilp.Cert.equal c c'
        | None -> false)

(* the slack contract (satellite of the certified-solving work): a slack
   solve may stop early, but never returns an answer more than [slack]
   below the exact optimum — and the certificate proves exactly that
   margin *)
let prop_slack_contract =
  QCheck.Test.make ~name:"Branch_bound slack: objective within slack of optimum"
    ~count:150
    QCheck.(pair (QCheck.make gen_rand_ilp) (int_range 1 6))
    (fun (r, s2) ->
       let slack = Q.of_ints s2 2 in
       let exact = Ilp.Branch_bound.solve (to_model r) in
       let m = to_model r in
       let relaxed, cert = Ilp.Branch_bound.solve_certified ~slack m in
       match (exact, relaxed) with
       | Ilp.Solution.Infeasible, Ilp.Solution.Infeasible -> true
       | Ilp.Solution.Optimal { objective = b; _ },
         Ilp.Solution.Optimal { objective = o; _ } ->
         (* o <= b (it is a feasible point) and b <= o + slack (the
            audited upper bound is sound) *)
         Q.compare o b <= 0
         && Q.compare b (Q.add o slack) <= 0
         && C.check ~slack m relaxed cert = C.Verified
       | _ -> false)

(* --- Solution API hardening ---------------------------------------------------- *)

let test_solution_not_optimal () =
  (match Ilp.Solution.objective_exn Ilp.Solution.Infeasible with
   | _ -> Alcotest.fail "objective_exn on Infeasible must raise"
   | exception Ilp.Solution.Not_optimal Ilp.Solution.Infeasible -> ());
  (match Ilp.Solution.values_exn Ilp.Solution.Unbounded with
   | _ -> Alcotest.fail "values_exn on Unbounded must raise"
   | exception Ilp.Solution.Not_optimal Ilp.Solution.Unbounded -> ());
  match Ilp.Solution.value_exn Ilp.Solution.Infeasible 0 with
  | _ -> Alcotest.fail "value_exn on Infeasible must raise"
  | exception Ilp.Solution.Not_optimal _ -> ()

let test_solution_equal () =
  let opt o vs =
    Ilp.Solution.Optimal { objective = o; values = Array.map q vs }
  in
  Alcotest.(check bool) "equal optimal" true
    (Ilp.Solution.equal (opt (q 3) [| 1; 2 |]) (opt (q 3) [| 1; 2 |]));
  Alcotest.(check bool) "objective differs" false
    (Ilp.Solution.equal (opt (q 3) [| 1; 2 |]) (opt (q 4) [| 1; 2 |]));
  Alcotest.(check bool) "values differ" false
    (Ilp.Solution.equal (opt (q 3) [| 1; 2 |]) (opt (q 3) [| 1; 3 |]));
  Alcotest.(check bool) "length differs" false
    (Ilp.Solution.equal (opt (q 3) [| 1; 2 |]) (opt (q 3) [| 1 |]));
  Alcotest.(check bool) "constructors differ" false
    (Ilp.Solution.equal Ilp.Solution.Infeasible Ilp.Solution.Unbounded);
  Alcotest.(check bool) "infeasible equal" true
    (Ilp.Solution.equal Ilp.Solution.Infeasible Ilp.Solution.Infeasible)

let () =
  Alcotest.run "audit"
    [
      ( "zed",
        [
          Alcotest.test_case "string round-trips and rejects" `Quick
            test_zed_strings;
          QCheck_alcotest.to_alcotest prop_zed_matches_int;
          QCheck_alcotest.to_alcotest prop_zed_divmod_matches_int;
          QCheck_alcotest.to_alcotest prop_zed_matches_bigint;
        ] );
      ( "ratio",
        [
          QCheck_alcotest.to_alcotest prop_ratio_matches_q;
          QCheck_alcotest.to_alcotest prop_ratio_floor_matches_int;
        ] );
      ( "checker",
        [
          Alcotest.test_case "LP optimal verified" `Quick test_checker_lp_optimal;
          Alcotest.test_case "LP infeasible verified" `Quick
            test_checker_lp_infeasible;
          Alcotest.test_case "LP unbounded verified" `Quick
            test_checker_lp_unbounded;
          Alcotest.test_case "ILP optimal verified" `Quick
            test_checker_ilp_optimal;
          Alcotest.test_case "ILP infeasible verified" `Quick
            test_checker_ilp_infeasible;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "wrong dual rejected" `Quick test_mutation_wrong_dual;
          Alcotest.test_case "tampered answer rejected" `Quick
            test_mutation_tampered_objective;
          Alcotest.test_case "truncated tree rejected" `Quick
            test_mutation_truncated_tree;
          Alcotest.test_case "slack mismatch rejected" `Quick
            test_mutation_slack_mismatch;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "garbage rejected" `Quick test_cert_string_garbage;
          QCheck_alcotest.to_alcotest prop_cert_json_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_certified_ilp_verifies;
            prop_certified_lp_verifies;
            prop_slack_contract;
          ] );
      ( "solution",
        [
          Alcotest.test_case "Not_optimal carries the constructor" `Quick
            test_solution_not_optimal;
          Alcotest.test_case "structural equality" `Quick test_solution_equal;
        ] );
    ]
