open Numeric

exception Node_limit_exceeded

(* Search observability (Obs.Metrics): totals are per-process and, with
   the single-flight solve cache, independent of the parallel degree —
   every distinct model is searched exactly once, on one domain. *)
let m_solves = Obs.Metrics.counter "ilp.bb.solves"
let m_nodes = Obs.Metrics.counter "ilp.bb.nodes"
let m_pruned = Obs.Metrics.counter "ilp.bb.pruned"
let m_incumbents = Obs.Metrics.counter "ilp.bb.incumbents"
let m_node_limit = Obs.Metrics.counter "ilp.bb.node_limit_hits"
let m_warm = Obs.Metrics.counter "ilp.bb.warm_starts"
let m_restarts = Obs.Metrics.counter "ilp.bb.engine_restarts"
let m_max_depth = Obs.Metrics.gauge "ilp.bb.max_depth"

(* Depth-first branch & bound, most-fractional branching, down-branch
   first (for the contention ILPs the optimum sits near the upper bounds,
   so the tightened side finds incumbents quickly).

   Warm starts: a branch only tightens variable bounds, which keeps the
   parent's optimal basis dual feasible, so each child node re-optimises
   the parent's solver state with a few dual pivots instead of building
   and solving a tableau from scratch. The down child pops first and
   re-solves a copy ({!Simplex.ENGINE.branch}); the up child pops only
   once the down subtree is done, when nothing reads the parent's state
   any more, and re-solves that state in place. The search runs on the
   machine-word fast tier first; an overflow deterministically restarts
   the whole search on the exact tier, so the result never depends on
   which tier finished.

   Incremental presolve: a child's box is its parent's presolved box
   with one bound moved, so the child propagates only the rows its
   parent left dirty at the round cap plus the rows that read the moved
   bound ({!Presolve.Make.moved}); every other row would change
   nothing.

   Every node runs on its engine's scalar: node boxes, presolve, the
   rounding heuristic, pruning and branching. {!Q} appears only when
   the model, its declared bounds and [slack] are converted once per
   search, and when the answer and certificate are handed back.

   [slack] relaxes the pruning test: a node is abandoned when its
   relaxation cannot beat the incumbent by more than [slack]. The returned
   incumbent is therefore within [slack] of the true optimum — callers
   needing a sound upper (resp. lower) bound on a maximisation (resp.
   minimisation) must add [slack] back. *)

module type MODE = sig
  module E : Simplex.ENGINE

  type node
  (** What a fully explored node contributes to the caller: [unit] for
      the plain search, {!Cert.tree} for the certified one. *)

  type info
  (** Payload extracted from an optimal node's LP certificate before
      branching decisions ([unit], or the dual multipliers). *)

  val info_of : Cert.lp_cert Lazy.t -> info
  val presolve_leaf : node
  val leaf_infeasible : Cert.lp_cert Lazy.t -> node
  val leaf_bounded : info -> node
  val branch_node : var:int -> pivot:E.S.t -> down:node -> up:node -> node
  val presolve : bool
end

exception Unbounded_search of Cert.lp_cert Lazy.t

module Search (M : MODE) = struct
  module E = M.E
  module S = E.S
  module P = Presolve.Make (S)

  (* Where a node's solver state comes from: the root solves cold, the
     down child copies its parent's state and the up child takes it
     over. *)
  type start = Cold | Copy of E.state | Take_over of E.state

  (* One unexplored node. [dirty] holds the rows its presolve must
     propagate. [set] installs the node's contribution once its whole
     subtree is done; branch nodes install themselves when both
     children have. *)
  type frame = {
    depth : int;
    start : start;
    lb : S.t option array;
    ub : S.t option array;
    dirty : P.dirty;
    set : M.node -> unit;
  }

  let run ~node_limit ~slack model =
    let nv = Model.num_vars model in
    let rows = P.compile model in
    let info v = Model.var_info model v in
    let lb0 = Array.init nv (fun v -> Option.map S.of_q (info v).Model.lb) in
    let ub0 = Array.init nv (fun v -> Option.map S.of_q (info v).Model.ub) in
    let is_int = Array.init nv (fun v -> (info v).Model.integer) in
    let slack = S.of_q slack in
    let maximize, obj_expr =
      match Model.objective model with
      | Model.Maximize, e -> (true, e)
      | Model.Minimize, e -> (false, e)
    in
    let obj_terms = Linexpr.terms obj_expr in
    let obj_coeffs =
      Array.of_list (List.map (fun (v, c) -> (v, S.of_q c)) obj_terms)
    in
    let obj_const = S.of_q (Linexpr.constant obj_expr) in
    (* When the objective takes integral values on every integer-feasible
       point, a node whose relaxation floors (resp. ceils) to the incumbent
       cannot contain a better solution — pruning on the rounded bound is
       exact and collapses fractional near-optimal plateaus. *)
    let objective_integral =
      Q.is_integer (Linexpr.constant obj_expr)
      && List.for_all (fun (v, c) -> Q.is_integer c && is_int.(v)) obj_terms
    in
    let effective_bound objective =
      if not objective_integral then objective
      else if maximize then S.floor objective
      else S.ceil objective
    in
    let worth_exploring objective incumbent =
      (* Can this node still beat [incumbent] by more than [slack]? *)
      if maximize then
        S.compare (effective_bound objective) (S.add incumbent slack) > 0
      else S.compare (effective_bound objective) (S.sub incumbent slack) < 0
    in
    let better a b =
      if maximize then S.compare a b > 0 else S.compare a b < 0
    in
    let best : (S.t * S.t array) option ref = ref None in
    let bound () = Option.map fst !best in
    let record objective values =
      match bound () with
      | Some b when not (better objective b) -> ()
      | _ ->
        Obs.Metrics.incr m_incumbents;
        best := Some (objective, values)
    in
    (* Rounding heuristic: flooring a relaxation point keeps every
       non-negative <=-constraint satisfied, so it often yields a feasible
       integer incumbent for free; we verify feasibility exactly before
       accepting it (the floored point is integral, so only the declared
       bounds and the rows can fail). *)
    let in_box x v =
      (match lb0.(v) with Some l -> S.compare x l >= 0 | None -> true)
      && match ub0.(v) with Some u -> S.compare x u <= 0 | None -> true
    in
    let try_floor values =
      let floored =
        Array.mapi (fun v x -> if is_int.(v) then S.floor x else x) values
      in
      let rec boxed v = v = nv || (in_box floored.(v) v && boxed (v + 1)) in
      if boxed 0 && P.satisfies rows floored then
        record
          (Array.fold_left
             (fun acc (v, c) -> S.add acc (S.mul c floored.(v)))
             obj_const obj_coeffs)
          floored
    in
    (* Branch on the fractional variable closest to half-integral,
       preferring variables with a non-zero objective coefficient: ties in
       the relaxation otherwise make the search wander over fractional
       splits that cannot change the bound. *)
    let int_vars = Model.integer_vars model in
    let obj_int_vars = List.filter (fun v -> List.mem_assoc v obj_terms) int_vars in
    let half = S.div S.one (S.add S.one S.one) in
    let most_fractional values =
      let pick vars =
        List.fold_left
          (fun acc v ->
             let x = values.(v) in
             let f = S.sub x (S.floor x) in
             if S.is_zero f then acc
             else begin
               let d = S.sub f half in
               let dist = if S.sign d < 0 then S.neg d else d in
               match acc with
               | Some (_, bdist) when S.compare bdist dist <= 0 -> acc
               | _ -> Some (v, dist)
             end)
          None vars
      in
      match pick obj_int_vars with
      | Some (v, _) -> Some v
      | None -> Option.map fst (pick int_vars)
    in
    let nodes = ref 0 in
    (* Depth-first over one explicit stack: popping LIFO visits nodes in
       exactly the recursive down-then-up order. *)
    let stack = ref [] in
    let push f = stack := f :: !stack in
    let warm st ~lb ~ub =
      Obs.Metrics.incr m_warm;
      let sol, cert = E.reoptimize_certified st ~lb ~ub in
      (Some st, sol, cert)
    in
    (* One node: count it, presolve, solve the relaxation warm from the
       parent basis, then settle as a leaf or push both children (up
       first so the down child pops first). *)
    let process frame =
      incr nodes;
      Obs.Metrics.incr m_nodes;
      Obs.Metrics.set_max m_max_depth frame.depth;
      if !nodes > node_limit then begin
        Obs.Metrics.incr m_node_limit;
        raise Node_limit_exceeded
      end;
      match
        if M.presolve then P.tighten rows frame.dirty ~lb:frame.lb ~ub:frame.ub
        else (Presolve.Tightened (frame.lb, frame.ub), frame.dirty)
      with
      | Presolve.Infeasible, _ -> frame.set M.presolve_leaf
      | Presolve.Tightened (lb, ub), dirty -> (
        let state, solution, cert =
          match frame.start with
          | Cold -> E.root_certified model ~lb ~ub
          | Copy pst -> warm (E.branch pst) ~lb ~ub
          | Take_over pst -> warm pst ~lb ~ub
        in
        match solution with
        | Solution.Infeasible -> frame.set (M.leaf_infeasible cert)
        | Solution.Unbounded ->
          (* An unbounded relaxation of a node means the ILP itself is
             unbounded or infeasible; surface it at the root. *)
          raise (Unbounded_search cert)
        | Solution.Optimal { objective; values } ->
          let info = M.info_of cert in
          let split = most_fractional values in
          if Option.is_some split then try_floor values;
          let prune =
            match bound () with
            | Some b -> not (worth_exploring objective b)
            | None -> false
          in
          if prune then begin
            Obs.Metrics.incr m_pruned;
            frame.set (M.leaf_bounded info)
          end
          else begin
            match split with
            | None ->
              record objective values;
              frame.set (M.leaf_bounded info)
            | Some v ->
              let fl = S.floor values.(v) and cl = S.ceil values.(v) in
              let ub' = Array.copy ub in
              ub'.(v) <-
                (match ub.(v) with
                 | Some u when S.compare u fl <= 0 -> Some u
                 | _ -> Some fl);
              let lb' = Array.copy lb in
              lb'.(v) <-
                (match lb.(v) with
                 | Some l when S.compare l cl >= 0 -> Some l
                 | _ -> Some cl);
              let dhole = ref None and uhole = ref None in
              let pending = ref 2 in
              let join hole t =
                hole := Some t;
                decr pending;
                if !pending = 0 then
                  frame.set
                    (M.branch_node ~var:v ~pivot:fl
                       ~down:(Option.get !dhole)
                       ~up:(Option.get !uhole))
              in
              (* [state] is [Some] with every [Optimal] answer. By the
                 time the up child pops, the down child has copied it,
                 and the certified search forced this node's
                 certificate above. *)
              let st = Option.get state in
              push
                { depth = frame.depth + 1; start = Take_over st; lb = lb';
                  ub; dirty = P.moved rows dirty ~var:v `Lb;
                  set = join uhole };
              push
                { depth = frame.depth + 1; start = Copy st; lb; ub = ub';
                  dirty = P.moved rows dirty ~var:v `Ub; set = join dhole }
          end)
    in
    let root_node = ref None in
    push
      { depth = 0; start = Cold; lb = lb0; ub = ub0;
        dirty = P.every_row rows; set = (fun t -> root_node := Some t) };
    let rec exhaust () =
      match !stack with
      | [] -> ()
      | f :: rest ->
        stack := rest;
        process f;
        exhaust ()
    in
    Obs.Tracer.with_span "ilp.branch_bound"
      ~attrs:(fun () ->
          [ ("vars", string_of_int nv); ("nodes", string_of_int !nodes) ])
      (fun () ->
         match exhaust () with
         | () ->
           let solution =
             match !best with
             | Some (objective, values) ->
               Solution.map S.to_q (Solution.Optimal { objective; values })
             | None -> Solution.Infeasible
           in
           let node =
             match !root_node with Some n -> n | None -> assert false
           in
           `Finished (solution, node)
         | exception Unbounded_search c -> `Unbounded c)
end

let search engine ~node_limit ~slack model =
  let module En = (val engine : Simplex.ENGINE) in
  let module S = Search (struct
    module E = En

    type node = unit
    type info = unit

    let info_of _ = ()
    let presolve_leaf = ()
    let leaf_infeasible _ = ()
    let leaf_bounded () = ()
    let branch_node ~var:_ ~pivot:_ ~down:_ ~up:_ = ()
    let presolve = true
  end) in
  match S.run ~node_limit ~slack model with
  | `Finished (sol, ()) -> sol
  | `Unbounded _ -> Solution.Unbounded

(* Certified search: identical branching discipline, but every node's
   relaxation goes through the certified engine entry points and the
   search keeps a log — a {!Cert.tree} — that an independent checker can
   replay. Presolve is disabled so that every node box is derivable
   from the declared bounds plus the branching path alone; that changes
   the node count but never the answer, which only depends on the
   exhaustive search discipline. *)
let search_certified engine ~node_limit ~slack model =
  let module En = (val engine : Simplex.ENGINE) in
  let module S = Search (struct
    module E = En

    type node = Cert.tree
    type info = Q.t array (* optimal duals *)

    (* the engines pair every [Optimal] answer with an [Optimal_cert] *)
    let info_of c =
      match Lazy.force c with
      | Cert.Optimal_cert { duals } -> duals
      | Cert.Farkas_box _ | Cert.Farkas_ray _ | Cert.Unbounded_cert _ ->
        assert false

    (* unreachable: the certified search never presolves *)
    let presolve_leaf = Cert.Leaf_bounded { duals = [||] }

    let leaf_infeasible c = Cert.Leaf_infeasible (Lazy.force c)

    (* Sound against the final answer because incumbents only ever
       improve: the dual bound beats at most incumbent + slack, and
       incumbent <= answer. Covers pruned nodes and integral leaves. *)
    let leaf_bounded duals = Cert.Leaf_bounded { duals }
    let branch_node ~var ~pivot ~down ~up =
      Cert.Branch { var; pivot = E.S.to_q pivot; down; up }
    let presolve = false
  end) in
  match S.run ~node_limit ~slack model with
  | `Finished (solution, tree) ->
    (solution, Cert.Ilp { islack = slack; tree })
  | `Unbounded c ->
    (* Warm re-solves never end [Unbounded] (branching only tightens
       bounds), so this can only fire at the root node. *)
    (Solution.Unbounded, Cert.Ilp_unbounded (Lazy.force c))

(* Tier ladder: machine-word fast path, then exact rationals. An
   overflow reruns the entire search, so the answer is always the
   deterministic output of a single engine. *)
let on_tiers search =
  match search Simplex.fast with
  | result -> result
  | exception Fastq.Overflow ->
    Obs.Metrics.incr m_restarts;
    search Simplex.exact

let solve ?(node_limit = 200_000) ?(slack = Q.zero) model =
  if Q.sign slack < 0 then invalid_arg "Branch_bound.solve: negative slack";
  Obs.Metrics.incr m_solves;
  on_tiers (fun engine -> search engine ~node_limit ~slack model)

let solve_certified ?(node_limit = 200_000) ?(slack = Q.zero) model =
  if Q.sign slack < 0 then
    invalid_arg "Branch_bound.solve_certified: negative slack";
  Obs.Metrics.incr m_solves;
  on_tiers (fun engine -> search_certified engine ~node_limit ~slack model)

let solve_lp_relaxation = Simplex.solve
