open Numeric

type 'a over =
  | Optimal of { objective : 'a; values : 'a array }
  | Infeasible
  | Unbounded

type t = Q.t over

let map f = function
  | Optimal { objective; values } ->
    Optimal { objective = f objective; values = Array.map f values }
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded

exception Not_optimal of t

let objective_exn = function
  | Optimal { objective; _ } -> objective
  | (Infeasible | Unbounded) as s -> raise (Not_optimal s)

let values_exn = function
  | Optimal { values; _ } -> values
  | (Infeasible | Unbounded) as s -> raise (Not_optimal s)

let value_exn s v = (values_exn s).(v)
let is_optimal = function Optimal _ -> true | Infeasible | Unbounded -> false

let equal a b =
  match (a, b) with
  | Infeasible, Infeasible | Unbounded, Unbounded -> true
  | ( Optimal { objective = o; values = vs },
      Optimal { objective = o'; values = vs' } ) ->
    Q.equal o o'
    && Array.length vs = Array.length vs'
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (Q.equal x vs'.(i)) then ok := false) vs;
        !ok)
  | _ -> false

let pp fmt = function
  | Infeasible -> Format.pp_print_string fmt "infeasible"
  | Unbounded -> Format.pp_print_string fmt "unbounded"
  | Optimal { objective; values } ->
    Format.fprintf fmt "@[<v>optimal, objective = %a@," Q.pp objective;
    Array.iteri (fun v x -> Format.fprintf fmt "  x%d = %a@," v Q.pp x) values;
    Format.fprintf fmt "@]"

let () =
  Printexc.register_printer (function
    | Not_optimal s ->
      Some (Format.asprintf "Ilp.Solution.Not_optimal (%a)" pp s)
    | _ -> None)
