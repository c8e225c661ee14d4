open Platform
open Numeric

type equality_mode = Exact | Window | Upper

type options = {
  equality_mode : equality_mode;
  use_contender_info : bool;
  dirty_lmu : bool;
  tailor_contender : bool;
  node_limit : int;
  mip_slack : int;
}

let default_options =
  {
    equality_mode = Upper;
    use_contender_info = true;
    dirty_lmu = false;
    tailor_contender = true;
    node_limit = 2_000;
    mip_slack = 16;
  }

type result = {
  delta : int;
  interference : ((Target.t * Op.t) * int) list;
  a_counts : Access_profile.t;
  b_counts : Access_profile.t;
  exact : bool;
}

let q = Q.of_int
let vname role t o = Printf.sprintf "n%s_%s_%s" role (Target.to_string t) (Op.to_string o)

let stall_of op (c : Counters.t) =
  match op with
  | Op.Code -> c.Counters.pmem_stall
  | Op.Data -> c.Counters.dmem_stall

(* cs^o_{min} over the targets the scenario leaves open for [op]
   (Eqs. 2–3 restricted by deployment); architectural sets if the scenario
   excludes everything. *)
let cs_min_for latency scenario op =
  let zeros = Scenario.zero_pairs scenario in
  let allowed (t, o) =
    Op.equal o op
    && not (List.exists (fun (zt, zo) -> Target.equal zt t && Op.equal zo o) zeros)
  in
  let candidates = List.filter allowed Op.valid_pairs in
  match candidates with
  | [] -> Latency.cs_min latency op
  | l -> List.fold_left (fun acc (t, o) -> min acc (Latency.min_stall latency t o)) max_int l

let build_model ?(options = default_options) ~latency ~scenario ~a ~b () =
  let m = Ilp.Model.create () in
  let vars : (string, Ilp.Model.var) Hashtbl.t = Hashtbl.create 32 in
  let zeros = Scenario.zero_pairs scenario in
  let is_zeroed t o =
    List.exists (fun (zt, zo) -> Target.equal zt t && Op.equal zo o) zeros
  in
  let slack op = cs_min_for latency scenario op - 1 in
  (* Upper bound a task variable consistently with its stall budget. *)
  let var_ub counters t o =
    (stall_of o counters + slack o) / Latency.min_stall latency t o
  in
  let declare role ub_fn tailored =
    List.iter
      (fun (t, o) ->
         let ub = if tailored && is_zeroed t o then 0 else ub_fn t o in
         let v =
           Ilp.Model.add_var m ~integer:true ~ub:(q ub) (vname role t o)
         in
         Hashtbl.replace vars (vname role t o) v)
      Op.valid_pairs
  in
  (* A cap for variables not bounded by their own stall budget (contender
     vars when Eqs. 22–23 are dropped; interference vars): interference can
     never exceed tau_a's total request capacity, so this M is harmless. *)
  let big_m =
    ((stall_of Op.Code a + slack Op.Code) / Latency.cs_min latency Op.Code)
    + ((stall_of Op.Data a + slack Op.Data) / Latency.cs_min latency Op.Data)
    + 1
  in
  declare "a" (var_ub a) true;
  declare "b"
    (fun t o -> if options.use_contender_info then var_ub b t o else big_m)
    options.tailor_contender;
  declare "ba" (fun _ _ -> big_m) false;
  let v role t o = Hashtbl.find vars (vname role t o) in
  let le ?name e rhs = Ilp.Model.add_constraint m ?name e Ilp.Model.Le (q rhs) in
  let ge ?name e rhs = Ilp.Model.add_constraint m ?name e Ilp.Model.Ge (q rhs) in
  let eq ?name e rhs = Ilp.Model.add_constraint m ?name e Ilp.Model.Eq (q rhs) in
  let term role t o = (Q.one, v role t o) in
  let expr terms = Ilp.Linexpr.of_terms terms in
  (* Eq. 10 (as two inequalities; equality is recovered at the optimum) *)
  le ~name:"eq10a" (expr [ term "ba" Target.Dfl Op.Data; (Q.minus_one, v "a" Target.Dfl Op.Data) ]) 0;
  le ~name:"eq10b" (expr [ term "ba" Target.Dfl Op.Data; (Q.minus_one, v "b" Target.Dfl Op.Data) ]) 0;
  (* Eqs. 11–19 for pf0, pf1, lmu (with the paper's pf1 typo corrected) *)
  List.iter
    (fun t ->
       let name s = Printf.sprintf "%s_%s" s (Target.to_string t) in
       let sum_a_neg =
         [ (Q.minus_one, v "a" t Op.Code); (Q.minus_one, v "a" t Op.Data) ]
       in
       le ~name:(name "co_le_a") (expr ((Q.one, v "ba" t Op.Code) :: sum_a_neg)) 0;
       le ~name:(name "co_le_b")
         (expr [ (Q.one, v "ba" t Op.Code); (Q.minus_one, v "b" t Op.Code) ])
         0;
       le ~name:(name "da_le_a") (expr ((Q.one, v "ba" t Op.Data) :: sum_a_neg)) 0;
       le ~name:(name "da_le_b")
         (expr [ (Q.one, v "ba" t Op.Data); (Q.minus_one, v "b" t Op.Data) ])
         0;
       le ~name:(name "sum_le_a")
         (expr ((Q.one, v "ba" t Op.Code) :: (Q.one, v "ba" t Op.Data) :: sum_a_neg))
         0)
    [ Target.Pf0; Target.Pf1; Target.Lmu ];
  (* Eqs. 20–23: stall-consistency of candidate PTACs *)
  let stall_constraint role counters op =
    let terms =
      Op.valid_pairs
      |> List.filter (fun (_, o) -> Op.equal o op)
      |> List.map (fun (t, o) -> (q (Latency.min_stall latency t o), v role t o))
    in
    let e = expr terms in
    let s = stall_of op counters in
    let name =
      Printf.sprintf "stall_%s_%s" role (Op.to_string op)
    in
    match options.equality_mode with
    | Exact -> eq ~name e s
    | Window ->
      ge ~name:(name ^ "_lo") e s;
      le ~name:(name ^ "_hi") e (s + slack op)
    | Upper -> le ~name:(name ^ "_hi") e (s + slack op)
  in
  stall_constraint "a" a Op.Code;
  stall_constraint "a" a Op.Data;
  if options.use_contender_info then begin
    stall_constraint "b" b Op.Code;
    stall_constraint "b" b Op.Data
  end;
  (* Table 5 tailoring (Zero specs were applied as variable bounds) *)
  let tailor role counters =
    List.iter
      (function
        | Scenario.Zero _ -> ()
        | Scenario.Code_sum_equals_pcache_miss ts ->
          eq
            ~name:(Printf.sprintf "pm_%s" role)
            (expr (List.map (fun t -> term role t Op.Code) ts))
            counters.Counters.pcache_miss
        | Scenario.Data_sum_at_least_dcache_misses ts ->
          ge
            ~name:(Printf.sprintf "dm_%s" role)
            (expr (List.map (fun t -> term role t Op.Data) ts))
            (counters.Counters.dcache_miss_clean + counters.Counters.dcache_miss_dirty))
      scenario.Scenario.specs
  in
  tailor "a" a;
  if options.tailor_contender && options.use_contender_info then tailor "b" b;
  (* Eq. 9: maximise the interference cycles *)
  let objective =
    Ilp.Linexpr.of_terms
      (List.map
         (fun (t, o) ->
            (q (Latency.lmax_op ~dirty:options.dirty_lmu latency t o), v "ba" t o))
         Op.valid_pairs)
  in
  Ilp.Model.set_objective m Ilp.Model.Maximize objective;
  (m, fun name -> Hashtbl.find vars name)

let charges_dirty_lmu contenders =
  List.exists (fun (b : Counters.t) -> b.Counters.dcache_miss_dirty > 0) contenders

let solve ?(options = default_options) (model, lookup) =
  if options.mip_slack < 0 then invalid_arg "Ilp_ptac: negative mip_slack";
  let extract values =
    let count role t o = Q.to_int_floor values.(lookup (vname role t o)) in
    let profile role =
      Access_profile.make
        (List.map (fun (t, o) -> ((t, o), count role t o)) Op.valid_pairs)
    in
    ( List.map (fun (t, o) -> ((t, o), count "ba" t o)) Op.valid_pairs,
      profile "a",
      profile "b" )
  in
  let prepared = Runtime.Solve_cache.prepare model in
  let lp = Runtime.Solve_cache.solve_lp prepared in
  let lp_cap =
    match lp with
    | Ilp.Solution.Optimal { objective; _ } -> Q.to_int_floor objective
    | Ilp.Solution.Infeasible | Ilp.Solution.Unbounded -> max_int
  in
  match
    Runtime.Solve_cache.solve_ilp ~node_limit:options.node_limit
      ~slack:(q options.mip_slack) prepared
  with
  | Ilp.Solution.Infeasible -> None
  | Ilp.Solution.Unbounded ->
    (* all variables carry finite bounds *)
    assert false
  | Ilp.Solution.Optimal { objective; values } ->
    (* The incumbent can undershoot the ILP optimum by at most [mip_slack];
       compensating keeps the bound sound. The LP relaxation caps the
       compensated value from above. *)
    let interference, a_counts, b_counts = extract values in
    Some
      {
        delta = min (Q.to_int_floor objective + options.mip_slack) lp_cap;
        interference;
        a_counts;
        b_counts;
        exact = options.mip_slack = 0;
      }
  | exception Ilp.Branch_bound.Node_limit_exceeded ->
    (* Sound fallback: the LP relaxation optimum upper-bounds the ILP
       optimum; report it (with the relaxation's rounded assignment for
       inspection) and mark the result as non-exact. *)
    (match lp with
     | Ilp.Solution.Optimal { values; _ } ->
       let interference, a_counts, b_counts = extract values in
       Some { delta = lp_cap; interference; a_counts; b_counts; exact = false }
     | Ilp.Solution.Infeasible -> None
     | Ilp.Solution.Unbounded -> assert false)

let contention_bound ?options ~latency ~scenario ~a ~b () =
  solve ?options (build_model ?options ~latency ~scenario ~a ~b ())

let contention_bound_exn ?options ~latency ~scenario ~a ~b () =
  match contention_bound ?options ~latency ~scenario ~a ~b () with
  | Some r -> r
  | None -> failwith "Ilp_ptac.contention_bound_exn: infeasible model"

let pp_result fmt r =
  Format.fprintf fmt "@[<v>ILP-PTAC: delta=%d@,interference:" r.delta;
  List.iter
    (fun ((t, o), n) ->
       if n > 0 then
         Format.fprintf fmt " %s.%s=%d" (Target.to_string t) (Op.to_string o) n)
    r.interference;
  Format.fprintf fmt "@,a: %a@,b: %a@]" Access_profile.pp r.a_counts
    Access_profile.pp r.b_counts
