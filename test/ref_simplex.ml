(* A reference LP solver: the dense two-phase primal simplex that the
   bounded-variable engine in [Ilp.Simplex] replaced, kept as an
   independent oracle. Variables are substituted onto non-negative
   columns (shifted, mirrored or split), bounded variables become extra
   rows, and phase 1 drives artificial columns out under Bland's rule.
   Nothing here shares code with the warm-started engine beyond the
   model and the rationals, so a bound-flip, dual-repair or warm-start
   bug cannot hide behind a shared tableau. It records no metrics and
   emits no certificate. *)

open Numeric
open Ilp

type row = { coeffs : Q.t array; rhs : Q.t; sense : Model.sense }

(* How a model variable maps onto non-negative tableau columns. *)
type colmap =
  | Shifted of int * Q.t (* x = shift + col,  col >= 0 *)
  | Mirrored of int * Q.t (* x = shift - col,  col >= 0 *)
  | Split of int * int (* x = col_pos - col_neg *)

let solve_with_bounds model ~lb ~ub =
  let nv = Model.num_vars model in
  if Array.length lb <> nv || Array.length ub <> nv then
    invalid_arg "Ref_simplex.solve_with_bounds: bound array length mismatch";
  (* Detect empty boxes before any algebra. *)
  let infeasible_box = ref false in
  for v = 0 to nv - 1 do
    match (lb.(v), ub.(v)) with
    | Some l, Some u when Q.compare l u > 0 -> infeasible_box := true
    | _ -> ()
  done;
  if !infeasible_box then Solution.Infeasible
  else begin
    (* --- step 1: column mapping ---------------------------------------- *)
    let ncols = ref 0 in
    let fresh () =
      let c = !ncols in
      incr ncols;
      c
    in
    let extra_rows = ref [] in
    let map =
      Array.init nv (fun v ->
          match (lb.(v), ub.(v)) with
          | Some l, Some u ->
            let c = fresh () in
            (* col <= u - l *)
            extra_rows := (c, Q.sub u l) :: !extra_rows;
            Shifted (c, l)
          | Some l, None -> Shifted (fresh (), l)
          | None, Some u -> Mirrored (fresh (), u)
          | None, None ->
            let p = fresh () in
            let n = fresh () in
            Split (p, n))
    in
    (* Rewrites [coef * x_v] into tableau columns; returns the constant that
       the substitution moves to the left-hand side. *)
    let apply_term coeffs v coef =
      match map.(v) with
      | Shifted (c, shift) ->
        coeffs.(c) <- Q.add coeffs.(c) coef;
        Q.mul coef shift
      | Mirrored (c, shift) ->
        coeffs.(c) <- Q.sub coeffs.(c) coef;
        Q.mul coef shift
      | Split (p, n) ->
        coeffs.(p) <- Q.add coeffs.(p) coef;
        coeffs.(n) <- Q.sub coeffs.(n) coef;
        Q.zero
    in
    let n_struct = !ncols in
    let transform_expr expr =
      let coeffs = Array.make n_struct Q.zero in
      let const = ref (Linexpr.constant expr) in
      List.iter
        (fun (v, c) -> const := Q.add !const (apply_term coeffs v c))
        (Linexpr.terms expr);
      (coeffs, !const)
    in
    (* --- step 2: rows --------------------------------------------------- *)
    let rows = ref [] in
    List.iter
      (fun (c : Model.constr) ->
         let coeffs, const = transform_expr c.expr in
         rows := { coeffs; rhs = Q.sub c.rhs const; sense = c.csense } :: !rows)
      (Model.constraints model);
    List.iter
      (fun (col, bound) ->
         let coeffs = Array.make n_struct Q.zero in
         coeffs.(col) <- Q.one;
         rows := { coeffs; rhs = bound; sense = Model.Le } :: !rows)
      !extra_rows;
    (* Normalise every row to rhs >= 0; negating a row flips its sense. *)
    let normalise r =
      if Q.sign r.rhs >= 0 then r
      else
        {
          coeffs = Array.map Q.neg r.coeffs;
          rhs = Q.neg r.rhs;
          sense =
            (match r.sense with
             | Model.Le -> Model.Ge
             | Model.Ge -> Model.Le
             | Model.Eq -> Model.Eq);
        }
    in
    let rows = Array.of_list (List.rev_map normalise !rows) in
    let m = Array.length rows in
    let dir, obj_expr = Model.objective model in
    let obj_coeffs, obj_const = transform_expr obj_expr in
    (* --- step 3: slack / artificial columns ----------------------------- *)
    let n_slack =
      Array.fold_left
        (fun acc r ->
           match r.sense with Model.Le | Model.Ge -> acc + 1 | Model.Eq -> acc)
        0 rows
    in
    let n_art =
      Array.fold_left
        (fun acc r ->
           match r.sense with Model.Ge | Model.Eq -> acc + 1 | Model.Le -> acc)
        0 rows
    in
    let n_total = n_struct + n_slack + n_art in
    let tab = Array.make_matrix m n_total Q.zero in
    let rhs = Array.make m Q.zero in
    let basis = Array.make m (-1) in
    let is_art = Array.make n_total false in
    let next_slack = ref n_struct in
    let next_art = ref (n_struct + n_slack) in
    Array.iteri
      (fun i r ->
         Array.blit r.coeffs 0 tab.(i) 0 n_struct;
         rhs.(i) <- r.rhs;
         (match r.sense with
          | Model.Le ->
            let s = !next_slack in
            incr next_slack;
            tab.(i).(s) <- Q.one;
            basis.(i) <- s
          | Model.Ge ->
            let s = !next_slack in
            incr next_slack;
            tab.(i).(s) <- Q.minus_one;
            let a = !next_art in
            incr next_art;
            tab.(i).(a) <- Q.one;
            is_art.(a) <- true;
            basis.(i) <- a
          | Model.Eq ->
            let a = !next_art in
            incr next_art;
            tab.(i).(a) <- Q.one;
            is_art.(a) <- true;
            basis.(i) <- a))
      rows;
    (* --- simplex core ---------------------------------------------------- *)
    let banned = Array.make n_total false in
    let cost = Array.make n_total Q.zero in
    let costv = ref Q.zero in
    let pivot r c =
      let prow = tab.(r) in
      let p = prow.(c) in
      if not (Q.equal p Q.one) then begin
        let inv = Q.inv p in
        for j = 0 to n_total - 1 do
          if not (Q.is_zero prow.(j)) then prow.(j) <- Q.mul prow.(j) inv
        done;
        rhs.(r) <- Q.mul rhs.(r) inv
      end;
      for i = 0 to m - 1 do
        if i <> r then begin
          let f = tab.(i).(c) in
          if not (Q.is_zero f) then begin
            let irow = tab.(i) in
            for j = 0 to n_total - 1 do
              if not (Q.is_zero prow.(j)) then
                irow.(j) <- Q.sub irow.(j) (Q.mul f prow.(j))
            done;
            rhs.(i) <- Q.sub rhs.(i) (Q.mul f rhs.(r))
          end
        end
      done;
      let f = cost.(c) in
      if not (Q.is_zero f) then begin
        for j = 0 to n_total - 1 do
          if not (Q.is_zero prow.(j)) then
            cost.(j) <- Q.sub cost.(j) (Q.mul f prow.(j))
        done;
        costv := Q.sub !costv (Q.mul f rhs.(r))
      end;
      basis.(r) <- c
    in
    (* Installs the reduced-cost row for minimising [c_vec . x]. *)
    let install_cost c_vec c_const =
      Array.blit c_vec 0 cost 0 n_total;
      costv := c_const;
      for i = 0 to m - 1 do
        let b = basis.(i) in
        let f = cost.(b) in
        if not (Q.is_zero f) then begin
          let brow = tab.(i) in
          for j = 0 to n_total - 1 do
            if not (Q.is_zero brow.(j)) then
              cost.(j) <- Q.sub cost.(j) (Q.mul f brow.(j))
          done;
          costv := Q.sub !costv (Q.mul f rhs.(i))
        end
      done
    in
    (* Bland's rule iteration; returns [`Optimal] or [`Unbounded]. *)
    let iterate () =
      let result = ref None in
      while !result = None do
        (* entering: smallest non-banned column with negative reduced cost *)
        let enter = ref (-1) in
        (try
           for j = 0 to n_total - 1 do
             if (not banned.(j)) && Q.sign cost.(j) < 0 then begin
               enter := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !enter < 0 then result := Some `Optimal
        else begin
          let c = !enter in
          (* leaving: ratio test, ties by smallest basis variable (Bland) *)
          let best = ref (-1) in
          let best_ratio = ref Q.zero in
          for i = 0 to m - 1 do
            if Q.sign tab.(i).(c) > 0 then begin
              let ratio = Q.div rhs.(i) tab.(i).(c) in
              if
                !best < 0
                || Q.compare ratio !best_ratio < 0
                || (Q.equal ratio !best_ratio && basis.(i) < basis.(!best))
              then begin
                best := i;
                best_ratio := ratio
              end
            end
          done;
          if !best < 0 then result := Some `Unbounded else pivot !best c
        end
      done;
      match !result with Some r -> r | None -> assert false
    in
    (* --- phase 1 --------------------------------------------------------- *)
    let phase2_and_extract () =
      (* Ban artificial columns from ever re-entering. *)
      for j = 0 to n_total - 1 do
        if is_art.(j) then banned.(j) <- true
      done;
      (* Drive artificials out of the basis where possible. *)
      for i = 0 to m - 1 do
        if is_art.(basis.(i)) then begin
          let piv = ref (-1) in
          (try
             for j = 0 to n_total - 1 do
               if (not is_art.(j)) && not (Q.is_zero tab.(i).(j)) then begin
                 piv := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !piv >= 0 then pivot i !piv
          (* else: redundant row; the artificial stays basic at value 0 and,
             being banned, never changes. *)
        end
      done;
      let c2 = Array.make n_total Q.zero in
      let factor = match dir with Model.Minimize -> Q.one | Model.Maximize -> Q.minus_one in
      Array.iteri (fun j v -> if j < n_struct then c2.(j) <- Q.mul factor v) obj_coeffs;
      install_cost c2 Q.zero;
      match iterate () with
      | `Unbounded -> Solution.Unbounded
      | `Optimal ->
        (* column values: basic -> rhs, nonbasic -> 0 *)
        let colv = Array.make n_total Q.zero in
        for i = 0 to m - 1 do
          colv.(basis.(i)) <- rhs.(i)
        done;
        let values =
          Array.init nv (fun v ->
              match map.(v) with
              | Shifted (c, shift) -> Q.add shift colv.(c)
              | Mirrored (c, shift) -> Q.sub shift colv.(c)
              | Split (p, n) -> Q.sub colv.(p) colv.(n))
        in
        (* minimised value = -(costv); undo the transform and sign. *)
        let min_val = Q.neg !costv in
        let obj_struct =
          match dir with Model.Minimize -> min_val | Model.Maximize -> Q.neg min_val
        in
        let objective = Q.add obj_struct obj_const in
        Solution.Optimal { objective; values }
    in
    if n_art = 0 then begin
      install_cost (Array.make n_total Q.zero) Q.zero;
      phase2_and_extract ()
    end
    else begin
      let c1 = Array.make n_total Q.zero in
      for j = 0 to n_total - 1 do
        if is_art.(j) then c1.(j) <- Q.one
      done;
      install_cost c1 Q.zero;
      match iterate () with
      | `Unbounded ->
        (* Phase-1 objective is bounded below by 0; cannot happen. *)
        assert false
      | `Optimal ->
        let phase1_value = Q.neg !costv in
        if Q.sign phase1_value > 0 then Solution.Infeasible
        else phase2_and_extract ()
    end
  end
