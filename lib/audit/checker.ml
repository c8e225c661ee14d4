open Ilp

type verdict = Verified | Failed of string

let m_verified = Obs.Metrics.counter "audit.verified"
let m_failed = Obs.Metrics.counter "audit.failed"

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* The model, re-read into checker-side arithmetic. Everything is held
   in the maximisation frame (a Minimize objective is negated), so one
   set of bound conditions covers both directions: a dual bound is an
   upper bound, pruning floors it, the answer dominates it. *)
type row = { coeffs : Ratio.t array; sense : Model.sense; rhs : Ratio.t }

type mdata = {
  nv : int;
  rows : row array;
  cmax : Ratio.t array;  (* objective coefficients, maximisation frame *)
  cconst : Ratio.t;  (* objective constant, maximisation frame *)
  maximize : bool;
  integer : bool array;
  lb0 : Ratio.t option array;  (* declared bounds *)
  ub0 : Ratio.t option array;
  obj_integral : bool;
      (* integral objective on every integer-feasible point: integer
         coefficients on integer variables only, integer constant —
         recomputed here, independently of the solver's test *)
}

let mdata_of_model model =
  let nv = Model.num_vars model in
  let dir, obj = Model.objective model in
  let maximize =
    match dir with Model.Maximize -> true | Model.Minimize -> false
  in
  let dense e =
    let a = Array.make nv Ratio.zero in
    List.iter
      (fun (v, c) ->
         if v < 0 || v >= nv then fail "term on unknown variable %d" v;
         a.(v) <- Ratio.of_q c)
      (Linexpr.terms e);
    a
  in
  let rows =
    Array.of_list
      (List.map
         (fun { Model.expr; csense; rhs; _ } ->
            {
              coeffs = dense expr;
              sense = csense;
              rhs = Ratio.sub (Ratio.of_q rhs) (Ratio.of_q (Linexpr.constant expr));
            })
         (Model.constraints model))
  in
  let craw = dense obj in
  let cmax = if maximize then craw else Array.map Ratio.neg craw in
  let craw_const = Ratio.of_q (Linexpr.constant obj) in
  let cconst = if maximize then craw_const else Ratio.neg craw_const in
  let integer = Array.init nv (fun v -> (Model.var_info model v).integer) in
  let obj_integral =
    Ratio.is_integer craw_const
    && List.for_all
         (fun (v, c) ->
            let c = Ratio.of_q c in
            Ratio.is_zero c || (Ratio.is_integer c && integer.(v)))
         (Linexpr.terms obj)
  in
  {
    nv;
    rows;
    cmax;
    cconst;
    maximize;
    integer;
    lb0 = Array.init nv (fun v -> Option.map Ratio.of_q (Model.var_info model v).lb);
    ub0 = Array.init nv (fun v -> Option.map Ratio.of_q (Model.var_info model v).ub);
    obj_integral;
  }

(* solver-side values enter checker arithmetic through the string
   bridge, one conversion per array *)
let rarr = Array.map Ratio.of_q

let dot coeffs x =
  let acc = ref Ratio.zero in
  Array.iteri
    (fun j c ->
       if not (Ratio.is_zero c) then acc := Ratio.add !acc (Ratio.mul c x.(j)))
    coeffs;
  !acc

let answer_max_of md objective =
  let o = Ratio.of_q objective in
  if md.maximize then o else Ratio.neg o

let check_point md ~lb ~ub ~integrality x =
  if Array.length x <> md.nv then fail "point length mismatch";
  for j = 0 to md.nv - 1 do
    (match lb.(j) with
     | Some l when Ratio.compare l x.(j) > 0 ->
       fail "point violates the lower bound of variable %d" j
     | _ -> ());
    (match ub.(j) with
     | Some u when Ratio.compare x.(j) u > 0 ->
       fail "point violates the upper bound of variable %d" j
     | _ -> ());
    if integrality && md.integer.(j) && not (Ratio.is_integer x.(j)) then
      fail "point is fractional on integer variable %d" j
  done;
  Array.iteri
    (fun i row ->
       let act = dot row.coeffs x in
       let c = Ratio.compare act row.rhs in
       let ok =
         match row.sense with
         | Model.Le -> c <= 0
         | Model.Ge -> c >= 0
         | Model.Eq -> c = 0
       in
       if not ok then fail "point violates constraint %d" i)
    md.rows

(* Weak-duality upper bound on [cmax . x] over the box [lb, ub] induced
   by row multipliers [y]: checks the sign conditions, forms the reduced
   costs, and charges each non-zero reduced cost to the finite bound it
   needs. Fails when a needed bound is missing — such a [y] bounds
   nothing. *)
let dual_bound md ~lb ~ub y =
  if Array.length y <> Array.length md.rows then
    fail "dual vector length mismatch";
  Array.iteri
    (fun i yi ->
       match md.rows.(i).sense with
       | Model.Le ->
         if Ratio.sign yi < 0 then fail "negative dual on <= constraint %d" i
       | Model.Ge ->
         if Ratio.sign yi > 0 then fail "positive dual on >= constraint %d" i
       | Model.Eq -> ())
    y;
  let u = ref Ratio.zero in
  Array.iteri
    (fun i yi ->
       if not (Ratio.is_zero yi) then
         u := Ratio.add !u (Ratio.mul yi md.rows.(i).rhs))
    y;
  for j = 0 to md.nv - 1 do
    let d = ref md.cmax.(j) in
    Array.iteri
      (fun i yi ->
         let a = md.rows.(i).coeffs.(j) in
         if (not (Ratio.is_zero yi)) && not (Ratio.is_zero a) then
           d := Ratio.sub !d (Ratio.mul yi a))
      y;
    let s = Ratio.sign !d in
    if s > 0 then
      match ub.(j) with
      | Some uj -> u := Ratio.add !u (Ratio.mul !d uj)
      | None -> fail "positive reduced cost on unbounded-above variable %d" j
    else if s < 0 then
      match lb.(j) with
      | Some lj -> u := Ratio.add !u (Ratio.mul !d lj)
      | None -> fail "negative reduced cost on unbounded-below variable %d" j
  done;
  !u

(* Infeasibility over the box [lb, ub]. *)
let check_infeasible md ~lb ~ub = function
  | Cert.Farkas_box v ->
    if v < 0 || v >= md.nv then fail "farkas-box variable out of range";
    (match (lb.(v), ub.(v)) with
     | Some l, Some u when Ratio.compare l u > 0 -> ()
     | _ -> fail "farkas-box: box of variable %d is not empty" v)
  | Cert.Farkas_ray w ->
    if Array.length w <> Array.length md.rows then
      fail "farkas ray length mismatch";
    let w = rarr w in
    (* Every feasible x satisfies sum_i w_i (row_i . x) + sum_i w_i s_i
       = W with per-sense slack ranges; infeasibility follows when the
       left side's interval over the box excludes W. [None] below means
       the corresponding end is infinite. *)
    let target = ref Ratio.zero in
    Array.iteri
      (fun i wi ->
         if not (Ratio.is_zero wi) then
           target := Ratio.add !target (Ratio.mul wi md.rows.(i).rhs))
      w;
    let lo = ref (Some Ratio.zero) and hi = ref (Some Ratio.zero) in
    let add_lo t = match !lo with Some v -> lo := Some (Ratio.add v t) | None -> () in
    let add_hi t = match !hi with Some v -> hi := Some (Ratio.add v t) | None -> () in
    for j = 0 to md.nv - 1 do
      let g = ref Ratio.zero in
      Array.iteri
        (fun i wi ->
           let a = md.rows.(i).coeffs.(j) in
           if (not (Ratio.is_zero wi)) && not (Ratio.is_zero a) then
             g := Ratio.add !g (Ratio.mul wi a))
        w;
      let s = Ratio.sign !g in
      if s > 0 then begin
        (match lb.(j) with Some l -> add_lo (Ratio.mul !g l) | None -> lo := None);
        match ub.(j) with Some u -> add_hi (Ratio.mul !g u) | None -> hi := None
      end
      else if s < 0 then begin
        (match ub.(j) with Some u -> add_lo (Ratio.mul !g u) | None -> lo := None);
        match lb.(j) with Some l -> add_hi (Ratio.mul !g l) | None -> hi := None
      end
    done;
    Array.iteri
      (fun i wi ->
         let s = Ratio.sign wi in
         if s <> 0 then
           match md.rows.(i).sense with
           | Model.Eq -> ()
           | Model.Le -> if s > 0 then hi := None else lo := None
           | Model.Ge -> if s > 0 then lo := None else hi := None)
      w;
    let excluded =
      (match !lo with Some l -> Ratio.compare l !target > 0 | None -> false)
      || match !hi with Some h -> Ratio.compare h !target < 0 | None -> false
    in
    if not excluded then
      fail "farkas ray does not exclude its right-hand side"
  | Cert.Optimal_cert _ | Cert.Unbounded_cert _ ->
    fail "not an infeasibility certificate"

let check_unbounded md ~lb ~ub point ray =
  if Array.length ray <> md.nv then fail "ray length mismatch";
  let point = rarr point and ray = rarr ray in
  check_point md ~lb ~ub ~integrality:false point;
  Array.iteri
    (fun i row ->
       let r = dot row.coeffs ray in
       let s = Ratio.sign r in
       let ok =
         match row.sense with
         | Model.Le -> s <= 0
         | Model.Ge -> s >= 0
         | Model.Eq -> s = 0
       in
       if not ok then fail "ray leaves constraint %d" i)
    md.rows;
  for j = 0 to md.nv - 1 do
    let s = Ratio.sign ray.(j) in
    if s > 0 && ub.(j) <> None then
      fail "ray increases bounded-above variable %d" j;
    if s < 0 && lb.(j) <> None then
      fail "ray decreases bounded-below variable %d" j
  done;
  if Ratio.sign (dot md.cmax ray) <= 0 then
    fail "ray does not improve the objective"

let check_lp md answer cert =
  match (answer, cert) with
  | Solution.Optimal { objective; values }, Cert.Optimal_cert { duals } ->
    let values = rarr values in
    check_point md ~lb:md.lb0 ~ub:md.ub0 ~integrality:false values;
    let amax = answer_max_of md objective in
    if not (Ratio.equal (Ratio.add (dot md.cmax values) md.cconst) amax) then
      fail "claimed objective disagrees with the claimed point";
    let u = dual_bound md ~lb:md.lb0 ~ub:md.ub0 (rarr duals) in
    (* strong duality holds exactly at the optimal basis, so anything
       short of equality means the multipliers don't belong to this
       answer *)
    if not (Ratio.equal (Ratio.add u md.cconst) amax) then
      fail "dual bound does not equal the claimed objective"
  | Solution.Infeasible, ((Cert.Farkas_box _ | Cert.Farkas_ray _) as c) ->
    check_infeasible md ~lb:md.lb0 ~ub:md.ub0 c
  | Solution.Unbounded, Cert.Unbounded_cert { point; ray } ->
    check_unbounded md ~lb:md.lb0 ~ub:md.ub0 point ray
  | _ -> fail "certificate kind does not match the answer"

(* Replay the branch & bound log: boxes are re-derived from the declared
   bounds plus the branching path, so the leaves cover the whole integer
   box by construction; each leaf must then locally rule out a better
   answer. [answer_max] is [None] for a claimed-infeasible answer. *)
let check_tree md ~slack ~answer_max tree =
  let rec walk ~lb ~ub = function
    | Cert.Leaf_infeasible c -> check_infeasible md ~lb ~ub c
    | Cert.Leaf_bounded { duals } -> (
        match answer_max with
        | None -> fail "bounded leaf in the log of an infeasible answer"
        | Some amax ->
          let u = Ratio.add (dual_bound md ~lb ~ub (rarr duals)) md.cconst in
          let eff = if md.obj_integral then Ratio.floor u else u in
          if Ratio.compare eff (Ratio.add amax slack) > 0 then
            fail "bounded leaf admits a better answer (bound %s)"
              (Ratio.to_string eff))
    | Cert.Branch { var; pivot; down; up } ->
      if var < 0 || var >= md.nv then fail "branch variable out of range";
      if not md.integer.(var) then fail "branch on continuous variable %d" var;
      let p = Ratio.of_q pivot in
      if not (Ratio.is_integer p) then fail "non-integral branch pivot";
      let ub' = Array.copy ub in
      ub'.(var) <-
        Some
          (match ub.(var) with
           | Some u when Ratio.compare u p <= 0 -> u
           | _ -> p);
      walk ~lb ~ub:ub' down;
      let p1 = Ratio.add p Ratio.one in
      let lb' = Array.copy lb in
      lb'.(var) <-
        Some
          (match lb.(var) with
           | Some l when Ratio.compare l p1 >= 0 -> l
           | _ -> p1);
      walk ~lb:lb' ~ub up
  in
  walk ~lb:md.lb0 ~ub:md.ub0 tree

let check_ilp md ~slack_expected answer islack tree =
  let islack = Ratio.of_q islack in
  if Ratio.sign islack < 0 then fail "negative slack in certificate";
  (match slack_expected with
   | Some s when not (Ratio.equal (Ratio.of_q s) islack) ->
     fail "certificate slack differs from the requested slack"
   | _ -> ());
  match answer with
  | Solution.Unbounded -> fail "search-tree certificate for an unbounded answer"
  | Solution.Infeasible -> check_tree md ~slack:islack ~answer_max:None tree
  | Solution.Optimal { objective; values } ->
    let values = rarr values in
    check_point md ~lb:md.lb0 ~ub:md.ub0 ~integrality:true values;
    let amax = answer_max_of md objective in
    if not (Ratio.equal (Ratio.add (dot md.cmax values) md.cconst) amax) then
      fail "claimed objective disagrees with the claimed point";
    check_tree md ~slack:islack ~answer_max:(Some amax) tree

let check ?slack model solution cert =
  match
    let md = mdata_of_model model in
    match cert with
    | Cert.Lp c -> check_lp md solution c
    | Cert.Ilp { islack; tree } ->
      check_ilp md ~slack_expected:slack solution islack tree
    | Cert.Ilp_unbounded c -> (
        match (solution, c) with
        | Solution.Unbounded, Cert.Unbounded_cert { point; ray } ->
          check_unbounded md ~lb:md.lb0 ~ub:md.ub0 point ray
        | Solution.Unbounded, _ ->
          fail "ilp-unbounded carries a non-unboundedness certificate"
        | _ -> fail "certificate kind does not match the answer")
  with
  | () -> Verified
  | exception Fail reason -> Failed reason

let audit ?slack model solution cert =
  Obs.Tracer.with_span "audit" (fun () ->
      let v = check ?slack model solution cert in
      (match v with
       | Verified -> Obs.Metrics.incr m_verified
       | Failed _ -> Obs.Metrics.incr m_failed);
      v)
