open Numeric

(* Structural canonicalization of models.

   Sweep pipelines tailor one ILP per experiment cell, and many cells
   build the *same* mathematical program with different variable creation
   orders, row orders or row scalings. [Model.canonical] is order- and
   scale-sensitive, so those twins miss a content-addressed cache. This
   module maps a model to a canonical representative of its isomorphism
   class:

   - every constraint is scaled by the unique positive rational that
     makes its coefficients coprime integers (sense preserved);
   - variables are renamed by sorting on a structural fingerprint that
     is invariant under variable renaming and row reordering;
   - each row's terms are re-sorted under the new names, and the rows
     themselves are sorted by their canonical encoding.

   The result is a genuine model isomorphism: the permutation is kept,
   so a solution of the canonical model maps back to a solution of the
   original with the same objective value. Ties in the fingerprint sort
   break by original index — that can only make two twins canonicalize
   differently (a missed cache hit), never make two different programs
   collide, because the renaming is applied to the actual model. *)

type t = {
  model : Model.t; (* the canonical representative *)
  forward : int array; (* original var -> canonical var *)
  structure : string; (* Model.canonical of the representative *)
}

let model t = t.model
let structure t = t.structure

let restore_values t cvalues =
  Array.init (Array.length t.forward) (fun v -> cvalues.(t.forward.(v)))

(* The unique s > 0 such that [s * coeffs] are coprime integers:
   lcm of denominators over gcd of scaled numerators. A row of native
   integers (nearly every row of a contention model) needs only the gcd
   of its coefficients, taken in native arithmetic. *)
let row_scale terms =
  let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b) in
  let rec small g = function
    | [] -> Some g
    | (_, c) :: rest ->
      (match Bigint.to_int_opt (Q.num c) with
       | Some n when Q.is_integer c && n <> min_int -> small (int_gcd g (abs n)) rest
       | _ -> None)
  in
  match small 0 terms with
  | Some g -> Q.of_ints 1 g
  | None ->
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

(* Fingerprints and row encodings are written into one buffer: the same
   bytes as [Printf.sprintf "%s|%s|%s|%d"] and ["%d:%s"] gave, so
   structures, permutations and every key built on them are unchanged.
   (A per-call table of rendered rationals measured no faster: most are
   one-digit integers, which {!Q.to_string} renders directly.) *)
let of_model m =
  let nv = Model.num_vars m in
  let constrs = Model.constraints m in
  let _, obj = Model.objective m in
  let qstr = Q.to_string in
  let buf = Buffer.create 256 in
  let take () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    s
  in
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
         if Q.equal s Q.one then (c.expr, c.csense, c.rhs)
         else (Linexpr.scale s c.expr, c.csense, Q.mul s c.rhs))
      constrs
  in
  (* fingerprint: everything structural about a variable that survives
     renaming and row reordering; an occurrence is "coeff|sense|rhs|arity" *)
  let occs = Array.make nv [] in
  List.iter
    (fun (expr, sense, rhs) ->
       let ts = Linexpr.terms expr in
       Buffer.add_char buf '|';
       Buffer.add_string buf (sense_tag sense);
       Buffer.add_char buf '|';
       Buffer.add_string buf (qstr rhs);
       Buffer.add_char buf '|';
       Buffer.add_string buf (string_of_int (List.length ts));
       let row = take () in
       List.iter (fun (v, c) -> occs.(v) <- (qstr c ^ row) :: occs.(v)) ts)
    scaled;
  let bound_tag = function None -> "*" | Some q -> qstr q in
  let fingerprint v =
    let info = Model.var_info m v in
    ( info.integer,
      bound_tag info.lb,
      bound_tag info.ub,
      qstr (Linexpr.coeff obj v),
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
       let cv = Model.add_free_var cm ~integer:info.integer ("v" ^ string_of_int k) in
       Model.set_var_bounds cm cv ~lb:info.lb ~ub:info.ub)
    order;
  let remap expr =
    Linexpr.of_terms
      ~const:(Linexpr.constant expr)
      (List.map (fun (v, c) -> (c, forward.(v))) (Linexpr.terms expr))
  in
  (* a row's sort key: "v:coeff,v:coeff;sense;rhs" *)
  let encode expr sense rhs =
    List.iteri
      (fun i (v, c) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_string buf (string_of_int v);
         Buffer.add_char buf ':';
         Buffer.add_string buf (qstr c))
      (Linexpr.terms expr);
    Buffer.add_char buf ';';
    Buffer.add_string buf (sense_tag sense);
    Buffer.add_char buf ';';
    Buffer.add_string buf (qstr rhs);
    take ()
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
       Model.add_constraint cm ~name:("c" ^ string_of_int i) expr sense rhs)
    rows;
  let dir, _ = Model.objective m in
  Model.set_objective cm dir (remap obj);
  { model = cm; forward; structure = Model.canonical cm }
