(* Dependency-graph execution on top of Pool. A dag is built once
   (nodes may only depend on already-created nodes, so node ids are a
   topological order by construction), then run once. The parallel path
   queues a node the moment its last dependency finishes, so
   independent rows overlap across phases instead of running
   phase-locked. The sequential path executes nodes in id order.

   Determinism: results live in per-node cells, every node executes (or
   is skip-marked) exactly once per run on every path, and the raised
   exception is the failure of the smallest node id — independent of
   scheduling. [runtime.dag.nodes] counts one per executed node and is
   jobs-invariant. *)

let m_nodes = Obs.Metrics.counter "runtime.dag.nodes"

type mark =
  | Pristine
  | Succeeded
  | Failed of exn
  | Skipped of string (* label of the failed/skipped dependency *)

type node_state = {
  id : int;
  owner : int; (* dag uid, guards cross-dag deps *)
  label : string;
  deps : node_state array; (* distinct, ids all < [id] *)
  mutable dependents : node_state list;
  pending : int Atomic.t; (* unmet deps; parallel run schedules at 0 *)
  mutable mark : mark;
  mutable exec : unit -> unit;
}

type 'a node = { st : node_state; cell : 'a option ref }
type dep = node_state

type t = {
  uid : int;
  mutable rev_nodes : node_state list;
  mutable count : int;
  mutable ran : bool;
}

exception Dependency_failed of { node : string; dep : string }

let () =
  Printexc.register_printer (function
    | Dependency_failed { node; dep } ->
      Some
        (Printf.sprintf "Runtime.Dag.Dependency_failed(node %S, dep %S)" node
           dep)
    | _ -> None)

let uid_counter = Atomic.make 0
let create () =
  { uid = Atomic.fetch_and_add uid_counter 1; rev_nodes = []; count = 0;
    ran = false }

let size t = t.count
let dep (n : 'a node) = n.st
let label (n : 'a node) = n.st.label

let node ?label t ~deps f =
  if t.ran then invalid_arg "Dag.node: dag already ran";
  let id = t.count in
  let label =
    match label with Some l -> l | None -> Printf.sprintf "node%d" id
  in
  List.iter
    (fun (d : dep) ->
       if d.owner <> t.uid then
         invalid_arg "Dag.node: dependency belongs to another dag")
    deps;
  let distinct =
    List.sort_uniq (fun (a : dep) b -> compare a.id b.id) deps
  in
  let st =
    {
      id;
      owner = t.uid;
      label;
      deps = Array.of_list distinct;
      dependents = [];
      pending = Atomic.make (List.length distinct);
      mark = Pristine;
      exec = ignore;
    }
  in
  let cell = ref None in
  st.exec <-
    (fun () ->
       Obs.Metrics.incr m_nodes;
       let failed_dep =
         Array.fold_left
           (fun acc (d : dep) ->
              match acc with
              | Some _ -> acc
              | None -> (
                match d.mark with
                | Succeeded -> None
                | Failed _ | Skipped _ -> Some d.label
                | Pristine -> assert false (* deps finish before us *)))
           None st.deps
       in
       match failed_dep with
       | Some dl -> st.mark <- Skipped dl
       | None -> (
         match f () with
         | v ->
           cell := Some v;
           st.mark <- Succeeded
         | exception e -> st.mark <- Failed e));
  List.iter (fun (d : dep) -> d.dependents <- st :: d.dependents) distinct;
  t.rev_nodes <- st :: t.rev_nodes;
  t.count <- id + 1;
  { st; cell }

let nodes_in_order t = Array.of_list (List.rev t.rev_nodes)

(* Both paths run {e every} node (failures mark, skips propagate), then
   the failure with the smallest node id — a pure function of the graph,
   not of the schedule — is re-raised. *)
let raise_first_failure nodes =
  Array.iter
    (fun st -> match st.mark with Failed e -> raise e | _ -> ())
    nodes

let run_seq nodes =
  (* ids are topological: every dependency of [st] already executed *)
  Array.iter (fun st -> Pool.inline_task st.exec) nodes

let run_parallel pool nodes =
  let remaining = Atomic.make (Array.length nodes) in
  let rec schedule st =
    Pool.submit ~label:st.label pool (fun () ->
        st.exec ();
        (* the decrements publish [mark]/[cell] to dependents and to
           the helping submitter (SC atomics) *)
        List.iter
          (fun d -> if Atomic.fetch_and_add d.pending (-1) = 1 then schedule d)
          st.dependents;
        Atomic.decr remaining)
  in
  Array.iter (fun st -> if Array.length st.deps = 0 then schedule st) nodes;
  Pool.help_until pool (fun () -> Atomic.get remaining = 0)

let run ?jobs t =
  if t.ran then invalid_arg "Dag.run: dag already ran";
  t.ran <- true;
  let nodes = nodes_in_order t in
  if Array.length nodes = 0 then ()
  else begin
    let j =
      match jobs with
      | None -> Pool.default_jobs ()
      | Some j ->
        if j < 1 then invalid_arg "Dag.run: jobs must be >= 1";
        j
    in
    if j = 1 then run_seq nodes
    else Pool.with_pool ~jobs:j (fun p -> run_parallel p nodes);
    raise_first_failure nodes
  end

let get (n : 'a node) =
  match (n.st.mark, !(n.cell)) with
  | Succeeded, Some v -> v
  | Succeeded, None -> assert false
  | Failed e, _ -> raise e
  | Skipped dl, _ -> raise (Dependency_failed { node = n.st.label; dep = dl })
  | Pristine, _ -> invalid_arg "Dag.get: dag has not run"
