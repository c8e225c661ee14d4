open Numeric

(* Bounded-variable simplex with warm starts.

   The solver runs in two tiers, both exact and both certifying:

   1. [Fast] — the bounded-variable engine over {!Fastq} machine-word
      rationals. Any overflow raises and the solve is redone exactly.
   2. [Exact] — the same engine over {!Q} bignum rationals.

   {!Fastq} is exact or it raises, so both tiers take the same Bland
   pivots under the same budget: overflow is the only reason to fall
   back, and a solve that stalls on one tier would stall on the other.

   The engine differs from a textbook dense two-phase simplex in three
   ways that matter on the contention ILPs:

   - Variable bounds are handled implicitly (nonbasic-at-lower/upper
     statuses and bound flips) instead of being rewritten into extra
     tableau rows, so a model with b bounded variables loses b rows and
     b slack columns compared to the dense construction.
   - There is no phase-1 artificial block: the all-slack basis is always
     dual feasible for the zero objective, so primal feasibility is
     established by a dual-simplex repair loop on the same tableau.
   - A solved tableau is a warm-start [state]: tightening variable
     bounds (what branch & bound does) keeps the basis dual feasible,
     so a child node re-optimises with a handful of dual pivots instead
     of a from-scratch solve. *)

(* Pivot/solve totals are deterministic: all pivoting rules are
   least-index (Bland), so totals are a function of the model stream
   alone, and the single-flight cache runs each distinct model through
   here the same number of times at any parallel degree. *)
let m_solves = Obs.Metrics.counter "ilp.simplex.solves"
let m_pivots = Obs.Metrics.counter "ilp.simplex.pivots"
let m_dual_pivots = Obs.Metrics.counter "ilp.simplex.dual_pivots"
let m_flips = Obs.Metrics.counter "ilp.simplex.bound_flips"
let m_infeasible = Obs.Metrics.counter "ilp.simplex.infeasible"
let m_unbounded = Obs.Metrics.counter "ilp.simplex.unbounded"
let m_fast_solves = Obs.Metrics.counter "ilp.simplex.fastpath_solves"
let m_fast_fallbacks = Obs.Metrics.counter "ilp.simplex.fastpath_fallbacks"

exception Stalled
(* Defensive pivot budget only: Bland's rule terminates, so [Stalled]
   firing means a solver bug. It escapes to the caller rather than
   looping. *)

(* ------------------------------------------------------------------ *)
(* The bounded-variable engine                                         *)
(* ------------------------------------------------------------------ *)

module type ENGINE = sig
  module S : Scalar.S

  type state

  val root_certified :
    Model.t -> lb:S.t option array -> ub:S.t option array ->
    state option * S.t Solution.over * Cert.lp_cert Lazy.t
  (** Cold solve, plus the answer's certificate. A state is returned
      exactly when the solution is [Optimal]; it sits at the optimal
      basis and can seed {!branch}/{!reoptimize_certified}. *)

  val branch : state -> state
  (** Deep copy, for the first child: the parent's factorized tableau
      survives that child's pivots, and the last child re-solves the
      parent's state itself. *)

  val reoptimize_certified :
    state -> lb:S.t option array -> ub:S.t option array ->
    S.t Solution.over * Cert.lp_cert Lazy.t
  (** Dual-simplex re-solve after tightening bounds (in place), plus the
      answer's certificate. The new box must be contained in the one the
      state was last solved with; this is exactly the branch & bound
      discipline. A warm re-solve never returns [Unbounded], so the
      certificate is an [Optimal_cert] or a Farkas proof. *)
end

type vstatus = Basic | At_lower | At_upper | Free_zero

module Engine (S : Scalar.S) : ENGINE with module S = S = struct
  module S = S

  type state = {
    objective : (int * S.t) array; (* the model's, in its own direction *)
    obj_const : S.t;
    maximize : bool;
    n_struct : int;
    m : int;
    n_total : int;
    tab : S.t array array; (* m x n_total: B^-1 A *)
    rho : S.t array; (* m: B^-1 b *)
    basis : int array; (* row -> basic column *)
    pos : int array; (* column -> row, -1 when nonbasic *)
    status : vstatus array; (* per column *)
    xval : S.t array; (* per column: value when nonbasic *)
    beta : S.t array; (* per row: value of its basic column *)
    cost : S.t array; (* reduced costs (minimisation form) *)
    lb : S.t option array; (* per column *)
    ub : S.t option array;
    mutable budget : int; (* anti-stall pivot budget *)
  }

  let copy st =
    {
      st with
      tab = Array.map Array.copy st.tab;
      rho = Array.copy st.rho;
      basis = Array.copy st.basis;
      pos = Array.copy st.pos;
      status = Array.copy st.status;
      xval = Array.copy st.xval;
      beta = Array.copy st.beta;
      cost = Array.copy st.cost;
      lb = Array.copy st.lb;
      ub = Array.copy st.ub;
    }

  let branch = copy

  let fixed st j =
    match (st.lb.(j), st.ub.(j)) with
    | Some l, Some u -> S.compare l u = 0
    | _ -> false

  let spend st =
    st.budget <- st.budget - 1;
    if st.budget < 0 then raise Stalled

  (* Shared pivot: normalise row [r] on column [c], eliminate [c] from
     every other row, the rhs column and the cost row, and swap the
     basis bookkeeping. The caller has already updated [beta] and the
     leaving column's status/value. *)
  let pivot_rows st r c =
    let prow = st.tab.(r) in
    let p = prow.(c) in
    if S.compare p S.one <> 0 then begin
      let inv = S.div S.one p in
      for j = 0 to st.n_total - 1 do
        if not (S.is_zero prow.(j)) then prow.(j) <- S.mul prow.(j) inv
      done;
      st.rho.(r) <- S.mul st.rho.(r) inv
    end;
    for i = 0 to st.m - 1 do
      if i <> r then begin
        let f = st.tab.(i).(c) in
        if not (S.is_zero f) then begin
          let irow = st.tab.(i) in
          for j = 0 to st.n_total - 1 do
            if not (S.is_zero prow.(j)) then
              irow.(j) <- S.sub irow.(j) (S.mul f prow.(j))
          done;
          st.rho.(i) <- S.sub st.rho.(i) (S.mul f st.rho.(r))
        end
      end
    done;
    let f = st.cost.(c) in
    if not (S.is_zero f) then
      for j = 0 to st.n_total - 1 do
        if not (S.is_zero prow.(j)) then
          st.cost.(j) <- S.sub st.cost.(j) (S.mul f prow.(j))
      done;
    let leaving = st.basis.(r) in
    st.pos.(leaving) <- -1;
    st.basis.(r) <- c;
    st.pos.(c) <- r;
    st.status.(c) <- Basic

  (* --- dual simplex: restore primal feasibility --------------------- *)

  (* The current basis is dual feasible (reduced-cost signs match the
     nonbasic statuses); drive every basic value back inside its bounds.
     Returns [`Feasible] or [`Infeasible r] where [r] is the tableau row
     whose basic variable cannot be repaired — row [r] of B^-1 is then a
     Farkas witness. *)
  let dual_loop st =
    let result = ref None in
    while !result = None do
      (* leaving: smallest basic variable whose value violates a bound *)
      let r = ref (-1) in
      let below = ref false in
      for i = st.m - 1 downto 0 do
        let b = st.basis.(i) in
        let viol_low =
          match st.lb.(b) with
          | Some l -> S.compare st.beta.(i) l < 0
          | None -> false
        and viol_up =
          match st.ub.(b) with
          | Some u -> S.compare st.beta.(i) u > 0
          | None -> false
        in
        if viol_low || viol_up then
          if !r < 0 || b < st.basis.(!r) then begin
            r := i;
            below := viol_low
          end
      done;
      if !r < 0 then result := Some `Feasible
      else begin
        let r = !r and below = !below in
        let row = st.tab.(r) in
        (* entering: among sign-eligible nonbasic columns, the one whose
           reduced-cost ratio is closest to zero (dual ratio test), ties
           to the smallest column index (Bland) *)
        let best = ref (-1) in
        let best_num = ref S.zero and best_den = ref S.one in
        for j = st.n_total - 1 downto 0 do
          if st.pos.(j) < 0 && not (fixed st j) then begin
            let a = row.(j) in
            let sa = S.sign a in
            let eligible =
              sa <> 0
              && (match st.status.(j) with
                  | At_lower -> if below then sa < 0 else sa > 0
                  | At_upper -> if below then sa > 0 else sa < 0
                  | Free_zero -> true
                  | Basic -> false)
            in
            if eligible then
              (* compare |d_j / a_j| <= |best| as |d_j * best_den| <=
                 |best_num * a_j| — exact, no division *)
              let lhs = S.mul (st.cost.(j)) !best_den
              and rhs = S.mul !best_num a in
              let abs x = if S.sign x < 0 then S.neg x else x in
              if !best < 0 || S.compare (abs lhs) (abs rhs) <= 0 then begin
                best := j;
                best_num := st.cost.(j);
                best_den := a
              end
          end
        done;
        if !best < 0 then result := Some (`Infeasible r)
        else begin
          let c = !best in
          spend st;
          Obs.Metrics.incr m_pivots;
          Obs.Metrics.incr m_dual_pivots;
          let b = st.basis.(r) in
          let target =
            if below then Option.get st.lb.(b) else Option.get st.ub.(b)
          in
          let alpha = row.(c) in
          let delta = S.div (S.sub st.beta.(r) target) alpha in
          for i = 0 to st.m - 1 do
            if not (S.is_zero st.tab.(i).(c)) then
              st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(c) delta)
          done;
          let entering_value = S.add st.xval.(c) delta in
          st.status.(b) <- (if below then At_lower else At_upper);
          st.xval.(b) <- target;
          pivot_rows st r c;
          st.beta.(r) <- entering_value
        end
      end
    done;
    match !result with Some x -> x | None -> assert false

  (* --- primal simplex with bound flips ------------------------------ *)

  let primal_loop st =
    let result = ref None in
    while !result = None do
      (* entering: smallest improving nonbasic column (Bland) *)
      let enter = ref (-1) in
      (try
         for j = 0 to st.n_total - 1 do
           if st.pos.(j) < 0 && not (fixed st j) then begin
             let d = S.sign st.cost.(j) in
             let improving =
               match st.status.(j) with
               | At_lower -> d < 0
               | At_upper -> d > 0
               | Free_zero -> d <> 0
               | Basic -> false
             in
             if improving then begin
               enter := j;
               raise Exit
             end
           end
         done
       with Exit -> ());
      if !enter < 0 then result := Some `Optimal
      else begin
        let c = !enter in
        (* direction: increase from a lower bound, decrease from an
           upper; a free column moves against its reduced cost *)
        let up =
          match st.status.(c) with
          | At_lower -> true
          | At_upper -> false
          | Free_zero | Basic -> S.sign st.cost.(c) < 0
        in
        (* ratio test over the rows; [best_t] is the step length *)
        let best = ref (-1) in
        let best_t = ref S.zero in
        let best_to_lower = ref true in
        for i = 0 to st.m - 1 do
          let a = st.tab.(i).(c) in
          if S.sign a <> 0 then begin
            (* basic value changes by -a*t when increasing, +a*t when
               decreasing the entering column *)
            let decreasing = if up then S.sign a > 0 else S.sign a < 0 in
            let b = st.basis.(i) in
            let limit =
              if decreasing then
                match st.lb.(b) with
                | Some l ->
                  let gap = S.sub st.beta.(i) l in
                  let rate = if up then a else S.neg a in
                  Some (S.div gap rate, true)
                | None -> None
              else
                match st.ub.(b) with
                | Some u ->
                  let gap = S.sub u st.beta.(i) in
                  let rate = if up then S.neg a else a in
                  Some (S.div gap rate, false)
                | None -> None
            in
            match limit with
            | None -> ()
            | Some (t, to_lower) ->
              if
                !best < 0
                || S.compare t !best_t < 0
                || (S.compare t !best_t = 0 && b < st.basis.(!best))
              then begin
                best := i;
                best_t := t;
                best_to_lower := to_lower
              end
          end
        done;
        (* the entering column's own opposite bound *)
        let own =
          match (st.status.(c), st.lb.(c), st.ub.(c)) with
          | At_lower, Some l, Some u -> Some (S.sub u l)
          | At_upper, Some l, Some u -> Some (S.sub u l)
          | _ -> None
        in
        let flip =
          match own with
          | Some span when !best < 0 || S.compare span !best_t < 0 ->
            Some span
          | _ -> None
        in
        match flip with
        | Some span ->
          spend st;
          Obs.Metrics.incr m_flips;
          let signed = if up then span else S.neg span in
          for i = 0 to st.m - 1 do
            if not (S.is_zero st.tab.(i).(c)) then
              st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(c) signed)
          done;
          (match st.status.(c) with
           | At_lower ->
             st.status.(c) <- At_upper;
             st.xval.(c) <- Option.get st.ub.(c)
           | At_upper ->
             st.status.(c) <- At_lower;
             st.xval.(c) <- Option.get st.lb.(c)
           | Basic | Free_zero -> assert false)
        | None ->
          if !best < 0 then result := Some (`Unbounded (c, up))
          else begin
            let r = !best in
            spend st;
            Obs.Metrics.incr m_pivots;
            let t = !best_t in
            let signed = if up then t else S.neg t in
            for i = 0 to st.m - 1 do
              if not (S.is_zero st.tab.(i).(c)) then
                st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(c) signed)
            done;
            let entering_value = S.add st.xval.(c) signed in
            let b = st.basis.(r) in
            st.status.(b) <- (if !best_to_lower then At_lower else At_upper);
            st.xval.(b) <-
              (if !best_to_lower then Option.get st.lb.(b)
               else Option.get st.ub.(b));
            pivot_rows st r c;
            st.beta.(r) <- entering_value
          end
      end
    done;
    match !result with Some x -> x | None -> assert false

  (* --- solution and certificate extraction -------------------------- *)

  let values_of st =
    Array.init st.n_struct (fun v ->
        if st.pos.(v) >= 0 then st.beta.(st.pos.(v)) else st.xval.(v))

  let extract st =
    let values = values_of st in
    let objective =
      Array.fold_left
        (fun acc (v, c) -> S.add acc (S.mul c values.(v)))
        st.obj_const st.objective
    in
    Solution.Optimal { objective; values }

  (* Dual certificate at an optimal basis. The engine always minimises
     the negated maximisation objective, so the reduced cost stored on
     slack column [i] is exactly the maximisation-frame row multiplier
     y_i the checker expects: no extra bookkeeping, just a read. *)
  let duals_of st =
    Array.init st.m (fun i -> S.to_q st.cost.(st.n_struct + i))

  (* Farkas certificate from a dual-infeasible row [r]: the slack
     entries of tableau row [r] are e_r . B^-1, i.e. the row multipliers
     whose combination the checker re-evaluates against the box. *)
  let farkas_of st r =
    Array.init st.m (fun i -> S.to_q st.tab.(r).(st.n_struct + i))

  (* Recession direction when column [c] enters unboundedly (moving up
     or down): the entering column changes by sigma, each basic column
     compensates by -sigma * tab.(i).(c). *)
  let ray_of st c up =
    let sigma = if up then S.one else S.neg S.one in
    Array.init st.n_struct (fun v ->
        let base = if v = c then sigma else S.zero in
        if st.pos.(v) >= 0 then
          S.to_q (S.sub base (S.mul sigma st.tab.(st.pos.(v)).(c)))
        else S.to_q base)

  (* --- bound installation ------------------------------------------- *)

  (* Smallest variable whose box is empty, if any (the [Farkas_box]
     certificate for trivially infeasible boxes). *)
  let empty_var ~lb ~ub =
    let nv = Array.length lb in
    let bad = ref (-1) in
    for v = nv - 1 downto 0 do
      match (lb.(v), ub.(v)) with
      | Some l, Some u when S.compare l u > 0 -> bad := v
      | _ -> ()
    done;
    if !bad < 0 then None else Some !bad

  (* Install a (tighter) box over the structural columns and re-anchor
     every nonbasic column on a bound of the new box. Statuses are
     preserved where still meaningful, which is what keeps the basis
     dual feasible across branch & bound's bound tightenings. *)
  let set_bounds st ~lb ~ub =
    Array.blit lb 0 st.lb 0 st.n_struct;
    Array.blit ub 0 st.ub 0 st.n_struct;
    for j = 0 to st.n_total - 1 do
      if st.pos.(j) < 0 then begin
        match st.status.(j) with
        | At_lower -> st.xval.(j) <- Option.get st.lb.(j)
        | At_upper -> st.xval.(j) <- Option.get st.ub.(j)
        | Free_zero ->
          (* a formerly free column that acquired a bound anchors there;
             its reduced cost is 0 at a warm start, so either side keeps
             dual feasibility *)
          (match (st.lb.(j), st.ub.(j)) with
           | Some l, _ ->
             st.status.(j) <- At_lower;
             st.xval.(j) <- l
           | None, Some u ->
             st.status.(j) <- At_upper;
             st.xval.(j) <- u
           | None, None -> st.xval.(j) <- S.zero)
        | Basic -> assert false
      end
    done;
    (* beta = rho - tab * xval over the nonbasic columns *)
    for i = 0 to st.m - 1 do
      st.beta.(i) <- st.rho.(i)
    done;
    for j = 0 to st.n_total - 1 do
      if st.pos.(j) < 0 && not (S.is_zero st.xval.(j)) then begin
        let x = st.xval.(j) in
        for i = 0 to st.m - 1 do
          if not (S.is_zero st.tab.(i).(j)) then
            st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(j) x)
        done
      end
    done

  (* --- cold build --------------------------------------------------- *)

  let build model ~lb:lbv ~ub:ubv =
    let nv = Model.num_vars model in
    let constrs = Array.of_list (Model.constraints model) in
    let m = Array.length constrs in
    let n_total = nv + m in
    let tab = Array.init m (fun _ -> Array.make n_total S.zero) in
    let rho = Array.make m S.zero in
    let lb = Array.make n_total None and ub = Array.make n_total None in
    Array.blit lbv 0 lb 0 nv;
    Array.blit ubv 0 ub 0 nv;
    Array.iteri
      (fun i (c : Model.constr) ->
         List.iter
           (fun (v, coef) -> tab.(i).(v) <- S.of_q coef)
           (Linexpr.terms c.expr);
         let s = nv + i in
         tab.(i).(s) <- S.one;
         rho.(i) <- S.of_q (Q.sub c.rhs (Linexpr.constant c.expr));
         (* slack bounds encode the sense of [expr + s = rhs] *)
         (match c.csense with
          | Model.Le -> lb.(s) <- Some S.zero
          | Model.Ge -> ub.(s) <- Some S.zero
          | Model.Eq ->
            lb.(s) <- Some S.zero;
            ub.(s) <- Some S.zero))
      constrs;
    let basis = Array.init m (fun i -> nv + i) in
    let pos = Array.make n_total (-1) in
    Array.iteri (fun i c -> pos.(c) <- i) basis;
    let status = Array.make n_total Free_zero in
    let xval = Array.make n_total S.zero in
    for j = 0 to n_total - 1 do
      if pos.(j) >= 0 then status.(j) <- Basic
      else
        match (lb.(j), ub.(j)) with
        | Some l, _ ->
          status.(j) <- At_lower;
          xval.(j) <- l
        | None, Some u ->
          status.(j) <- At_upper;
          xval.(j) <- u
        | None, None -> status.(j) <- Free_zero
    done;
    let beta = Array.make m S.zero in
    let dir, obj = Model.objective model in
    let st =
      {
        objective =
          Array.of_list
            (List.map (fun (v, c) -> (v, S.of_q c)) (Linexpr.terms obj));
        obj_const = S.of_q (Linexpr.constant obj);
        maximize = (match dir with Model.Maximize -> true | Model.Minimize -> false);
        n_struct = nv;
        m;
        n_total;
        tab;
        rho;
        basis;
        pos;
        status;
        xval;
        beta;
        cost = Array.make n_total S.zero;
        lb;
        ub;
        budget = 0;
      }
    in
    (* beta from the all-slack basis *)
    for i = 0 to m - 1 do
      beta.(i) <- rho.(i)
    done;
    for j = 0 to nv - 1 do
      if not (S.is_zero xval.(j)) then
        for i = 0 to m - 1 do
          if not (S.is_zero tab.(i).(j)) then
            beta.(i) <- S.sub beta.(i) (S.mul tab.(i).(j) xval.(j))
        done
    done;
    st

  let budget_for st = 2000 + (64 * (st.m + 1) * (st.n_total + 1))

  (* Reduced costs of the (minimisation-form) objective over the current
     basis; the basis columns of [tab] are unit columns, so one sweep of
     row subtractions zeroes every basic entry. *)
  let install_cost st =
    Array.fill st.cost 0 st.n_total S.zero;
    Array.iter
      (fun (v, c) -> st.cost.(v) <- (if st.maximize then S.neg c else c))
      st.objective;
    for i = 0 to st.m - 1 do
      let f = st.cost.(st.basis.(i)) in
      if not (S.is_zero f) then begin
        let row = st.tab.(i) in
        for j = 0 to st.n_total - 1 do
          if not (S.is_zero row.(j)) then
            st.cost.(j) <- S.sub st.cost.(j) (S.mul f row.(j))
        done
      end
    done

  let root_certified model ~lb ~ub =
    Obs.Metrics.incr m_solves;
    if Array.length lb <> Model.num_vars model
       || Array.length ub <> Model.num_vars model
    then invalid_arg "Simplex: bound array length mismatch";
    match empty_var ~lb ~ub with
    | Some v -> (None, Solution.Infeasible, Lazy.from_val (Cert.Farkas_box v))
    | None ->
      let st = build model ~lb ~ub in
      st.budget <- budget_for st;
      (* phase 1: all reduced costs are zero, so the basis is trivially
         dual feasible — dual pivots repair primal feasibility *)
      (match dual_loop st with
       | `Infeasible r ->
         (None, Solution.Infeasible, lazy (Cert.Farkas_ray (farkas_of st r)))
       | `Feasible -> (
           install_cost st;
           match primal_loop st with
           | `Unbounded (c, up) ->
             ( None,
               Solution.Unbounded,
               lazy
                 (Cert.Unbounded_cert
                    { point = Array.map S.to_q (values_of st);
                      ray = ray_of st c up }) )
           | `Optimal ->
             ( Some st,
               extract st,
               lazy (Cert.Optimal_cert { duals = duals_of st }) )))

  let reoptimize_certified st ~lb ~ub =
    Obs.Metrics.incr m_solves;
    match empty_var ~lb ~ub with
    | Some v -> (Solution.Infeasible, Lazy.from_val (Cert.Farkas_box v))
    | None ->
      st.budget <- budget_for st;
      set_bounds st ~lb ~ub;
      (match dual_loop st with
       | `Infeasible r ->
         (Solution.Infeasible, lazy (Cert.Farkas_ray (farkas_of st r)))
       | `Feasible ->
         (extract st, lazy (Cert.Optimal_cert { duals = duals_of st })))
end

module Fast_engine = Engine (Scalar.Fast)
module Exact_engine = Engine (Scalar.Exact)

let fast : (module ENGINE) = (module Fast_engine)
let exact : (module ENGINE) = (module Exact_engine)

(* ------------------------------------------------------------------ *)
(* Tiered public entry points                                          *)
(* ------------------------------------------------------------------ *)

(* One cold solve on a tier, answer and certificate converted to
   {!Q}. *)
let root_on (module E : ENGINE) model ~lb ~ub =
  let box = Array.map (Option.map E.S.of_q) in
  let _, sol, cert = E.root_certified model ~lb:(box lb) ~ub:(box ub) in
  (Solution.map E.S.to_q sol, Lazy.force cert)

let solve_with_bounds_certified model ~lb ~ub =
  Obs.Tracer.with_span "ilp.simplex" (fun () ->
      let r, cert =
        match root_on fast model ~lb ~ub with
        | answer ->
          Obs.Metrics.incr m_fast_solves;
          answer
        | exception Fastq.Overflow ->
          Obs.Metrics.incr m_fast_fallbacks;
          root_on exact model ~lb ~ub
      in
      (match r with
       | Solution.Infeasible -> Obs.Metrics.incr m_infeasible
       | Solution.Unbounded -> Obs.Metrics.incr m_unbounded
       | Solution.Optimal _ -> ());
      (r, cert))

let declared_bounds model =
  let nv = Model.num_vars model in
  let lb = Array.init nv (fun v -> (Model.var_info model v).lb) in
  let ub = Array.init nv (fun v -> (Model.var_info model v).ub) in
  (lb, ub)

let solve_certified model =
  let lb, ub = declared_bounds model in
  solve_with_bounds_certified model ~lb ~ub

let solve model = fst (solve_certified model)
