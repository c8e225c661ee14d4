type t = {
  jobs : int;
  tasks : int;
  wall_s : float;
  cpu_s : float;
  cache_hits : int;
  cache_misses : int;
  cache_raw_hits : int;
  cache_canonical_hits : int;
  cache_waited : int;
  run_cache_hits : int;
  run_cache_misses : int;
}

let measure ~jobs f =
  let tasks0 = Pool.tasks_run () in
  let stats0 = Solve_cache.stats () in
  let rstats0 = Run_cache.stats () in
  let cpu0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let result = f () in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let cpu_s = Sys.time () -. cpu0 in
  let stats1 = Solve_cache.stats () in
  let rstats1 = Run_cache.stats () in
  ( result,
    {
      jobs;
      tasks = Pool.tasks_run () - tasks0;
      wall_s;
      cpu_s;
      cache_hits = stats1.Solve_cache.hits - stats0.Solve_cache.hits;
      cache_misses = stats1.Solve_cache.misses - stats0.Solve_cache.misses;
      cache_raw_hits = stats1.Solve_cache.raw_hits - stats0.Solve_cache.raw_hits;
      cache_canonical_hits =
        stats1.Solve_cache.canonical_hits - stats0.Solve_cache.canonical_hits;
      cache_waited = stats1.Solve_cache.waited - stats0.Solve_cache.waited;
      run_cache_hits = rstats1.Run_cache.hits - rstats0.Run_cache.hits;
      run_cache_misses = rstats1.Run_cache.misses - rstats0.Run_cache.misses;
    } )

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0. else float_of_int t.cache_hits /. float_of_int total

(* Every hit is classified exactly once as raw or canonical — waiters
   are not a third class (a waiter is a parallel-timing artifact; at
   jobs=1 it would have settled as one of the two), so the breakdown
   never double-counts them and the two rates plus the miss rate sum
   to 1 at any parallel degree. *)
let raw_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0. else float_of_int t.cache_raw_hits /. float_of_int total

let canonical_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.
  else float_of_int t.cache_canonical_hits /. float_of_int total

let run_cache_hit_rate t =
  let total = t.run_cache_hits + t.run_cache_misses in
  if total = 0 then 0. else float_of_int t.run_cache_hits /. float_of_int total

let pp fmt t =
  Format.fprintf fmt
    "jobs=%d tasks=%d wall=%.3fs cpu=%.3fs cache=%d hit/%d miss (raw %.0f%%, \
     canonical %.0f%%%s) runs=%d hit/%d miss"
    t.jobs t.tasks t.wall_s t.cpu_s t.cache_hits t.cache_misses
    (100. *. raw_hit_rate t)
    (100. *. canonical_hit_rate t)
    (if t.cache_waited > 0 then
       Printf.sprintf ", %d of the hits waited" t.cache_waited
     else "")
    t.run_cache_hits t.run_cache_misses
