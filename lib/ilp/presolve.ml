open Numeric

type 'a over = Tightened of 'a option array * 'a option array | Infeasible
type outcome = Q.t over

(* One tighten call per branch-and-bound node: totals are deterministic
   per solve and, through the single-flight cache, per process. *)
let m_calls = Obs.Metrics.counter "ilp.presolve.calls"
let m_tightened = Obs.Metrics.counter "ilp.presolve.bounds_tightened"
let m_infeasible = Obs.Metrics.counter "ilp.presolve.infeasible"
let m_rows = Obs.Metrics.counter "ilp.presolve.rows_propagated"

exception Empty_box

module Make (S : Scalar.S) = struct
  (* [Σ coeffs.(i) * x_(vars.(i)) <= rhs] with the expression's constant
     folded into [rhs]; coefficients are non-zero and variables distinct
     (the {!Linexpr} invariant). *)
  type row = { vars : int array; coeffs : S.t array; rhs : S.t }

  (* [lb_readers.(v)] ([ub_readers.(v)]) lists, in row order, the rows
     whose minimum activity reads [v]'s lower (upper) bound: those with
     a positive (negative) coefficient on [v]. *)
  type rows = {
    rows : row array;
    integer : bool array;
    lb_readers : int array array;
    ub_readers : int array array;
  }

  (* One flag per row; never mutated once handed out. *)
  type dirty = bool array

  (* A [>=] row is propagated as its negation and an [=] row as both
     directions, [<=] first: the order {!tighten} sweeps them in. *)
  let compile model =
    let le expr rhs =
      let terms = Array.of_list (Linexpr.terms expr) in
      {
        vars = Array.map fst terms;
        coeffs = Array.map (fun (_, c) -> S.of_q c) terms;
        rhs = S.of_q (Q.sub rhs (Linexpr.constant expr));
      }
    in
    let ge expr rhs = le (Linexpr.neg expr) (Q.neg rhs) in
    let rows =
      Array.of_list
        (List.concat_map
           (fun { Model.expr; csense; rhs; _ } ->
              match csense with
              | Model.Le -> [ le expr rhs ]
              | Model.Ge -> [ ge expr rhs ]
              | Model.Eq -> [ le expr rhs; ge expr rhs ])
           (Model.constraints model))
    in
    let nv = Model.num_vars model in
    let readers positive =
      let acc = Array.make nv [] in
      for r = Array.length rows - 1 downto 0 do
        Array.iteri
          (fun i v ->
             if (S.sign rows.(r).coeffs.(i) > 0) = positive then
               acc.(v) <- r :: acc.(v))
          rows.(r).vars
      done;
      Array.map Array.of_list acc
    in
    {
      rows;
      integer =
        Array.init nv (fun v -> (Model.var_info model v).Model.integer);
      lb_readers = readers true;
      ub_readers = readers false;
    }

  let every_row t = Array.make (Array.length t.rows) true

  let moved t dirty ~var side =
    let d = Array.copy dirty in
    Array.iter
      (fun r -> d.(r) <- true)
      (match side with `Lb -> t.lb_readers.(var) | `Ub -> t.ub_readers.(var));
    d

  let satisfies t x =
    Array.for_all
      (fun r ->
         let s = ref S.zero in
         Array.iteri (fun i v -> s := S.add !s (S.mul r.coeffs.(i) x.(v))) r.vars;
         S.compare !s r.rhs <= 0)
      t.rows

  let tighten ?(rounds = 3) t dirty ~lb ~ub =
    let nv = Array.length t.integer in
    if Array.length lb <> nv || Array.length ub <> nv then
      invalid_arg "Presolve.tighten: bound array length mismatch";
    Obs.Metrics.incr m_calls;
    Obs.Tracer.with_span "ilp.presolve" (fun () ->
    let lb = Array.copy lb and ub = Array.copy ub in
    let dirty = Array.copy dirty in
    (* A moved bound dirties the rows that read it. *)
    let mark readers = Array.iter (fun r -> dirty.(r) <- true) readers in
    let raise_lb v x =
      let x = if t.integer.(v) then S.ceil x else x in
      match lb.(v) with
      | Some l when S.compare l x >= 0 -> ()
      | _ ->
        lb.(v) <- Some x;
        (match ub.(v) with
         | Some u when S.compare x u > 0 -> raise Empty_box
         | _ -> ());
        Obs.Metrics.incr m_tightened;
        mark t.lb_readers.(v)
    in
    let lower_ub v x =
      let x = if t.integer.(v) then S.floor x else x in
      match ub.(v) with
      | Some u when S.compare u x <= 0 -> ()
      | _ ->
        ub.(v) <- Some x;
        (match lb.(v) with
         | Some l when S.compare l x > 0 -> raise Empty_box
         | _ -> ());
        Obs.Metrics.incr m_tightened;
        mark t.ub_readers.(v)
    in
    (* The bound a term's minimum activity reads: the lower one for a
       positive coefficient, the upper one for a negative. *)
    let min_side c v = if S.sign c > 0 then lb.(v) else ub.(v) in
    (* [c * x_v + rest <= rhs] bounds [x_v] from above ([c > 0]) or
       below ([c < 0]). *)
    let bound_term r c v rest =
      let bound = S.div (S.sub r.rhs rest) c in
      if S.sign c > 0 then lower_ub v bound else raise_lb v bound
    in
    (* Interval propagation of one row. The minimum activity of the rest
       of the row is [total - term], or the finite part alone when this
       term is the row's only infinite one. Tightening a term moves only
       the bound its own minimum does not read (a positive coefficient
       lowers [ub], a negative one raises [lb]), so [total] stays exact
       for the whole sweep: O(k) work for k terms. *)
    let propagate_le r =
      Obs.Metrics.incr m_rows;
      let n = Array.length r.vars in
      let fin = ref S.zero and ninf = ref 0 in
      for i = 0 to n - 1 do
        let c = r.coeffs.(i) in
        match min_side c r.vars.(i) with
        | Some b -> fin := S.add !fin (S.mul c b)
        | None -> incr ninf
      done;
      if !ninf = 0 && S.compare !fin r.rhs > 0 then raise Empty_box;
      if !ninf <= 1 then
        for i = 0 to n - 1 do
          let c = r.coeffs.(i) and v = r.vars.(i) in
          match min_side c v with
          | Some b -> if !ninf = 0 then bound_term r c v (S.sub !fin (S.mul c b))
          | None -> bound_term r c v !fin
        done
    in
    (* Each round visits the dirty rows in row order; a row dirtied
       behind the sweep waits for the next round, one ahead of it is
       visited in this one, exactly as a sweep over every row would. *)
    match
      let round = ref 0 in
      while !round < rounds && Array.exists Fun.id dirty do
        Array.iteri
          (fun i r ->
             if dirty.(i) then begin
               dirty.(i) <- false;
               propagate_le r
             end)
          t.rows;
        incr round
      done
    with
    | () -> (Tightened (lb, ub), dirty)
    | exception Empty_box ->
      Obs.Metrics.incr m_infeasible;
      (Infeasible, dirty))
end

module Exact = Make (Scalar.Exact)

let tighten ?rounds model ~lb ~ub =
  let rows = Exact.compile model in
  fst (Exact.tighten ?rounds rows (Exact.every_row rows) ~lb ~ub)

(* Minimum/maximum activity of [coeff * x] over the box [lb, ub]:
   None encodes the corresponding infinity. *)
let term_min coeff lb ub =
  if Q.sign coeff >= 0 then Option.map (Q.mul coeff) lb
  else Option.map (Q.mul coeff) ub

let term_max coeff lb ub =
  if Q.sign coeff >= 0 then Option.map (Q.mul coeff) ub
  else Option.map (Q.mul coeff) lb

let add_opt a b =
  match (a, b) with Some x, Some y -> Some (Q.add x y) | _ -> None

let activity ~lb ~ub expr =
  let terms = Linexpr.terms expr in
  let const = Linexpr.constant expr in
  ( List.fold_left
      (fun acc (v, c) -> add_opt acc (term_min c lb.(v) ub.(v)))
      (Some const) terms,
    List.fold_left
      (fun acc (v, c) -> add_opt acc (term_max c lb.(v) ub.(v)))
      (Some const) terms )
