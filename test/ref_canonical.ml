(* The former [Ilp.Canonical.of_model], kept as a test oracle: it
   renders fingerprints and row encodings through [Printf]. The library
   version renders them into buffers and must give the same structure
   string and the same variable permutation, so solve-cache keys, disk
   entries and simplex tie-breaking do not move. Returns the
   representative, the permutation (original var -> canonical var) and
   the structure string. *)

open Numeric
open Ilp

let row_scale terms =
  match terms with
  | [] -> Q.one
  | _ ->
    let l =
      List.fold_left
        (fun acc (_, c) ->
           let d = Q.den c in
           Bigint.div (Bigint.mul acc d) (Bigint.gcd acc d))
        Bigint.one terms
    in
    let g =
      List.fold_left
        (fun acc (_, c) ->
           Bigint.gcd acc (Bigint.div (Bigint.mul (Q.num c) l) (Q.den c)))
        Bigint.zero terms
    in
    Q.make l g

let sense_tag = function Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "="

let of_model m =
  let nv = Model.num_vars m in
  let constrs = Model.constraints m in
  let _, obj = Model.objective m in
  (* scale rows first: scaling is renaming-independent. A row with no
     terms (every coefficient zero; constants are folded into rhs at
     construction) is vacuous or infeasible depending only on the rhs
     sign, so its rhs normalizes to that sign. *)
  let scaled =
    List.map
      (fun (c : Model.constr) ->
         let s =
           match Linexpr.terms c.expr with
           | [] -> if Q.is_zero c.rhs then Q.one else Q.inv (Q.abs c.rhs)
           | terms -> row_scale terms
         in
         (Linexpr.scale s c.expr, c.csense, Q.mul s c.rhs))
      constrs
  in
  (* fingerprint: everything structural about a variable that survives
     renaming and row reordering *)
  let occs = Array.make nv [] in
  List.iter
    (fun (expr, sense, rhs) ->
       let ts = Linexpr.terms expr in
       let arity = List.length ts in
       List.iter
         (fun (v, c) ->
            occs.(v) <-
              Printf.sprintf "%s|%s|%s|%d" (Q.to_string c) (sense_tag sense)
                (Q.to_string rhs) arity
              :: occs.(v))
         ts)
    scaled;
  let bound_tag = function None -> "*" | Some q -> Q.to_string q in
  let fingerprint v =
    let info = Model.var_info m v in
    ( info.integer,
      bound_tag info.lb,
      bound_tag info.ub,
      Q.to_string (Linexpr.coeff obj v),
      List.sort String.compare occs.(v) )
  in
  let fps = Array.init nv fingerprint in
  let order = Array.init nv (fun v -> v) in
  Array.sort
    (fun a b ->
       let c = Stdlib.compare fps.(a) fps.(b) in
       if c <> 0 then c else Stdlib.compare a b)
    order;
  let forward = Array.make nv 0 in
  Array.iteri (fun k v -> forward.(v) <- k) order;
  (* build the representative *)
  let cm = Model.create () in
  Array.iteri
    (fun k v ->
       let info = Model.var_info m v in
       let cv =
         Model.add_free_var cm ~integer:info.integer (Printf.sprintf "v%d" k)
       in
       Model.set_var_bounds cm cv ~lb:info.lb ~ub:info.ub)
    order;
  let remap expr =
    Linexpr.of_terms
      ~const:(Linexpr.constant expr)
      (List.map (fun (v, c) -> (c, forward.(v))) (Linexpr.terms expr))
  in
  let encode expr sense rhs =
    String.concat ","
      (List.map
         (fun (v, c) -> Printf.sprintf "%d:%s" v (Q.to_string c))
         (Linexpr.terms expr))
    ^ ";" ^ sense_tag sense ^ ";" ^ Q.to_string rhs
  in
  let rows =
    List.map
      (fun (expr, sense, rhs) ->
         let expr = remap expr in
         (encode expr sense rhs, expr, sense, rhs))
      scaled
  in
  let rows =
    List.sort (fun (ka, _, _, _) (kb, _, _, _) -> String.compare ka kb) rows
  in
  List.iteri
    (fun i (_, expr, sense, rhs) ->
       Model.add_constraint cm ~name:(Printf.sprintf "c%d" i) expr sense rhs)
    rows;
  let dir, _ = Model.objective m in
  Model.set_objective cm dir (remap obj);
  (cm, forward, Model.canonical cm)
