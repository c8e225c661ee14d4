open Platform

type result = {
  delta : int;
  n_co : int;
  n_da : int;
  l_co_max : int;
  l_da_max : int;
}

let dirty_misses (scenario : Scenario.t) = scenario.Scenario.name = "scenario2"

let contention_bound ?(dirty = false) ?exact_code_count ~latency ~a () =
  let bounds = Mbta.Access_bounds.of_counters latency a in
  let n_co =
    match exact_code_count with
    | Some n ->
      if n < 0 then invalid_arg "Ftc.contention_bound: negative code count";
      n
    | None -> bounds.Mbta.Access_bounds.n_co
  in
  let n_da = bounds.Mbta.Access_bounds.n_da in
  let l_co_max = Latency.worst_latency ~dirty latency Op.Code in
  let l_da_max = Latency.worst_latency ~dirty latency Op.Data in
  { delta = (n_co * l_co_max) + (n_da * l_da_max); n_co; n_da; l_co_max; l_da_max }

let pp fmt r =
  Format.fprintf fmt "fTC: delta=%d (n_co=%d x %d + n_da=%d x %d)" r.delta
    r.n_co r.l_co_max r.n_da r.l_da_max
