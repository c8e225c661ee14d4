(* A reference presolve: the [Ilp.Presolve.tighten] that propagated
   every row in bignum [Q], re-summing the rest of the row for every term
   (O(k^2) per row), kept as an oracle. The scalar-generic presolve must
   return the same boxes, or [Infeasible], after the same number of
   tightenings. *)

open Numeric

(* Minimum activity of [coeff * x] over the box [lb, ub]: None encodes
   the corresponding infinity. *)
let term_min coeff lb ub =
  if Q.sign coeff >= 0 then Option.map (Q.mul coeff) lb
  else Option.map (Q.mul coeff) ub

let add_opt a b =
  match (a, b) with Some x, Some y -> Some (Q.add x y) | _ -> None

exception Empty_box

(* [Some (lb, ub)] or [None] for an empty box, and the number of bounds
   tightened on the way. *)
let tighten ?(rounds = 3) model ~lb ~ub =
  let nv = Ilp.Model.num_vars model in
  let tightened = ref 0 in
  let lb = Array.copy lb and ub = Array.copy ub in
  let integer =
    Array.init nv (fun v -> (Ilp.Model.var_info model v).Ilp.Model.integer)
  in
  let raise_lb v x =
    let x = if integer.(v) then Q.ceil x else x in
    match lb.(v) with
    | Some l when Q.compare l x >= 0 -> false
    | _ ->
      lb.(v) <- Some x;
      (match ub.(v) with
       | Some u when Q.compare x u > 0 -> raise Empty_box
       | _ -> ());
      incr tightened;
      true
  in
  let lower_ub v x =
    let x = if integer.(v) then Q.floor x else x in
    match ub.(v) with
    | Some u when Q.compare u x <= 0 -> false
    | _ ->
      ub.(v) <- Some x;
      (match lb.(v) with
       | Some l when Q.compare l x > 0 -> raise Empty_box
       | _ -> ());
      incr tightened;
      true
  in
  (* Propagates [expr <= rhs]; equality is handled by also propagating
     the negated row. *)
  let propagate_le expr rhs =
    let terms = Ilp.Linexpr.terms expr in
    let const = Ilp.Linexpr.constant expr in
    let min_total =
      List.fold_left
        (fun acc (v, c) -> add_opt acc (term_min c lb.(v) ub.(v)))
        (Some const) terms
    in
    (match min_total with
     | Some m when Q.compare m rhs > 0 -> raise Empty_box
     | _ -> ());
    let changed = ref false in
    List.iter
      (fun (v, c) ->
         if not (Q.is_zero c) then begin
           (* minimum activity of the row without this term *)
           let rest =
             List.fold_left
               (fun acc (v', c') ->
                  if v' = v then acc
                  else add_opt acc (term_min c' lb.(v') ub.(v')))
               (Some const) terms
           in
           match rest with
           | None -> ()
           | Some rest ->
             let bound = Q.div (Q.sub rhs rest) c in
             if Q.sign c > 0 then begin
               if lower_ub v bound then changed := true
             end
             else if raise_lb v bound then changed := true
         end)
      terms;
    !changed
  in
  let propagate_constraint (c : Ilp.Model.constr) =
    let expr = c.Ilp.Model.expr and rhs = c.Ilp.Model.rhs in
    match c.Ilp.Model.csense with
    | Ilp.Model.Le -> propagate_le expr rhs
    | Ilp.Model.Ge -> propagate_le (Ilp.Linexpr.neg expr) (Q.neg rhs)
    | Ilp.Model.Eq ->
      let a = propagate_le expr rhs in
      let b = propagate_le (Ilp.Linexpr.neg expr) (Q.neg rhs) in
      a || b
  in
  let constraints = Ilp.Model.constraints model in
  let boxes =
    match
      let round = ref 0 in
      let changed = ref true in
      while !changed && !round < rounds do
        changed :=
          List.fold_left
            (fun acc c -> propagate_constraint c || acc)
            false constraints;
        incr round
      done
    with
    | () -> Some (lb, ub)
    | exception Empty_box -> None
  in
  (boxes, !tightened)
