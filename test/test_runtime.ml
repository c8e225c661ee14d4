(* Tests for the deterministic domain pool and the content-addressed solve
   cache.

   Pool coverage: every task runs exactly once, results come back in input
   order regardless of the parallel degree, the first (input-order)
   exception propagates after the batch drains, and AURIX_JOBS parsing.
   Solve_cache coverage: hit/miss accounting, key sensitivity to the model
   and the solver parameters, and caching of the node-limit outcome.
   Run_cache coverage: the same single-flight guarantees for whole
   simulator runs — key sensitivity (kernel, programs, priorities,
   flags; never names), cycle-limit replay, hit/miss totals that are
   invariant across parallel degrees, and uncached failures that
   release the key in both caches. *)

open Numeric

let q = Q.of_int

exception Boom of int

(* --- pool -------------------------------------------------------------------- *)

let test_map_preserves_order () =
  List.iter
    (fun jobs ->
       let n = 50 in
       let input = List.init n (fun i -> i) in
       let out = Runtime.Pool.map ~jobs (fun i -> (i * 2) + 1) input in
       Alcotest.(check (list int))
         (Printf.sprintf "jobs=%d" jobs)
         (List.map (fun i -> (i * 2) + 1) input)
         out)
    [ 1; 2; 4; 7 ]

let test_tasks_run_exactly_once () =
  let n = 40 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let tasks =
    List.init n (fun i () ->
        Atomic.incr hits.(i);
        i)
  in
  let out = Runtime.Pool.run_all ~jobs:4 tasks in
  Alcotest.(check (list int)) "results in input order" (List.init n Fun.id) out;
  Array.iteri
    (fun i a ->
       Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 (Atomic.get a))
    hits

let test_exception_propagates () =
  List.iter
    (fun jobs ->
       match
         Runtime.Pool.run_all ~jobs
           [ (fun () -> 1); (fun () -> raise (Boom 1)); (fun () -> 2) ]
       with
       | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
       | exception Boom 1 -> ())
    [ 1; 4 ]

let test_first_exception_in_input_order () =
  (* parallel path: make the later-listed failure finish first; the batch
     still reports the earliest failing task *)
  let tasks =
    [
      (fun () ->
         Unix.sleepf 0.05;
         raise (Boom 0));
      (fun () -> raise (Boom 1));
    ]
  in
  (match Runtime.Pool.run_all ~jobs:2 tasks with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom i -> Alcotest.(check int) "earliest task wins" 0 i)

let test_all_tasks_complete_despite_exception () =
  let ran = Atomic.make 0 in
  let tasks =
    List.init 10 (fun i () ->
        Atomic.incr ran;
        if i = 3 then raise (Boom i))
  in
  (match Runtime.Pool.run_all ~jobs:4 tasks with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom _ -> ());
  Alcotest.(check int) "parallel batch drains fully" 10 (Atomic.get ran)

let test_tasks_counter () =
  let before = Runtime.Pool.tasks_run () in
  ignore (Runtime.Pool.map ~jobs:2 Fun.id [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "five tasks accounted" 5 (Runtime.Pool.tasks_run () - before)

let test_default_jobs_env () =
  let check expect v =
    Unix.putenv "AURIX_JOBS" v;
    Alcotest.(check int) (Printf.sprintf "AURIX_JOBS=%s" v) expect
      (Runtime.Pool.default_jobs ())
  in
  check 3 "3";
  check 1 "1";
  check 128 "9999" (* clamped *);
  Unix.putenv "AURIX_JOBS" "nonsense";
  Alcotest.(check bool) "unparsable falls back to domain count" true
    (Runtime.Pool.default_jobs () >= 1);
  Unix.putenv "AURIX_JOBS" ""

let test_jobs_beyond_domain_limit () =
  (* rejected before any domain is spawned: a degree past the runtime's
     domain limit would otherwise start 127 workers, then fail *)
  let ran = ref false in
  List.iter
    (fun jobs ->
       (match Runtime.Pool.create ~jobs () with
        | p ->
          Runtime.Pool.shutdown p;
          Alcotest.failf "create ~jobs:%d accepted" jobs
        | exception Invalid_argument _ -> ());
       match Runtime.Pool.run_all ~jobs [ (fun () -> ran := true) ] with
       | _ -> Alcotest.failf "run_all ~jobs:%d accepted" jobs
       | exception Invalid_argument _ -> ())
    [ 0; Runtime.Pool.max_jobs + 1 ];
  Alcotest.(check int) "limit" 128 Runtime.Pool.max_jobs;
  Alcotest.(check bool) "no task ran" false !ran

let test_with_pool_reuse () =
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "degree" 3 (Runtime.Pool.jobs pool);
      let a = Runtime.Pool.map_in pool (fun i -> i + 1) [ 1; 2; 3 ] in
      let b = Runtime.Pool.map_in pool (fun i -> i * 10) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] a;
      Alcotest.(check (list int)) "second batch" [ 10; 20; 30 ] b)

(* --- scheduler: one queue, helping waiters ------------------------------------ *)

(* deterministic busy work so task costs are real compute, not sleeps *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

let test_nested_run_all_on_workers () =
  (* tasks block on a nested batch of the same pool. At jobs=2 the one
     worker and the caller each run an outer task and wait on its inner
     batch: the batches finish only because waiters help *)
  List.iter
    (fun jobs ->
       Runtime.Pool.with_pool ~jobs (fun pool ->
           let out =
             Runtime.Pool.map_in pool
               (fun i ->
                  List.fold_left ( + ) 0
                    (Runtime.Pool.run_all_in pool
                       (List.init 4 (fun j () -> (10 * i) + j))))
               [ 1; 2; 3; 4; 5; 6 ]
           in
           Alcotest.(check (list int))
             (Printf.sprintf "nested batches compose at jobs=%d" jobs)
             (List.map (fun i -> (40 * i) + 6) [ 1; 2; 3; 4; 5; 6 ])
             out))
    [ 2; 3 ]

let test_skewed_hammer () =
  (* skewed task costs on 4 domains: every eighth task is two orders of
     magnitude heavier, so executors finish out of step; results,
     exactly-once accounting and the task counter must not notice *)
  let n = 64 in
  let cost i = if i mod 8 = 0 then 200_000 else 500 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let batch () =
    List.init n (fun i () ->
        Atomic.incr hits.(i);
        spin (cost i) lxor i)
  in
  let before = Runtime.Pool.tasks_run () in
  let r4 = Runtime.Pool.run_all ~jobs:4 (batch ()) in
  Alcotest.(check int) "tasks accounted once" n
    (Runtime.Pool.tasks_run () - before);
  Array.iteri
    (fun i a ->
       Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1
         (Atomic.get a))
    hits;
  (* determinism oracle: byte-identical to the sequential schedule and
     to a repeated parallel run *)
  let r1 = Runtime.Pool.run_all ~jobs:1 (batch ()) in
  let r4' = Runtime.Pool.run_all ~jobs:4 (batch ()) in
  Alcotest.(check (list int)) "parallel = sequential" r1 r4;
  Alcotest.(check (list int)) "parallel repeatable" r4 r4'

(* --- solve cache -------------------------------------------------------------- *)

let knapsack_model ?(capacity = 50) () =
  let m = Ilp.Model.create () in
  let add v w name =
    let x = Ilp.Model.add_var m ~integer:true ~ub:Q.one name in
    ((q v, x), (q w, x))
  in
  let (v1, w1) = add 60 10 "item1" in
  let (v2, w2) = add 100 20 "item2" in
  let (v3, w3) = add 120 30 "item3" in
  Ilp.Model.add_constraint m
    (Ilp.Linexpr.of_terms [ w1; w2; w3 ])
    Ilp.Model.Le (q capacity);
  Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.of_terms [ v1; v2; v3 ]);
  m

let objective_exn = function
  | Ilp.Solution.Optimal { objective; _ } -> objective
  | _ -> Alcotest.fail "expected optimal"

let test_cache_hit_on_identical_model () =
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let s1 = Runtime.Solve_cache.(solve_ilp (prepare (knapsack_model ()))) in
  let s2 = Runtime.Solve_cache.(solve_ilp (prepare (knapsack_model ()))) in
  Alcotest.(check string) "same optimum" "220"
    (Q.to_string (objective_exn s1));
  Alcotest.(check string) "cached result identical" "220"
    (Q.to_string (objective_exn s2));
  let { Runtime.Solve_cache.hits; misses; waited } =
    Runtime.Solve_cache.stats ()
  in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "nobody waited" 0 waited;
  Alcotest.(check int) "one entry" 1 (Runtime.Solve_cache.size ())

let test_cache_miss_on_perturbed_model () =
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  ignore (Runtime.Solve_cache.(solve_ilp (prepare (knapsack_model ()))));
  ignore
    Runtime.Solve_cache.(solve_ilp (prepare (knapsack_model ~capacity:40 ())));
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "two misses" 2 misses;
  Alcotest.(check int) "no hits" 0 hits

let test_cache_distinguishes_solvers_and_params () =
  let m = knapsack_model () in
  let canon = Ilp.Canonical.of_model m in
  let k = Runtime.Solve_cache.canonical_key ~tag:"x" canon in
  Alcotest.(check bool) "tag enters the key" false
    (String.equal k (Runtime.Solve_cache.canonical_key ~tag:"y" canon));
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  ignore (Runtime.Solve_cache.(solve_lp (prepare m)));
  ignore (Runtime.Solve_cache.(solve_ilp (prepare m)));
  ignore (Runtime.Solve_cache.(solve_ilp ~slack:(q 5) (prepare m)));
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "lp / ilp / ilp+slack are distinct entries" 3 misses;
  Alcotest.(check int) "no spurious hits" 0 hits

let test_cache_key_ignores_names () =
  (* content addressing is semantic: variable names don't enter the key *)
  let build name =
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true ~ub:(q 7) name in
    Ilp.Model.set_objective m Ilp.Model.Maximize (Ilp.Linexpr.var x);
    m
  in
  let key name =
    Runtime.Solve_cache.canonical_key ~tag:"t" (Ilp.Canonical.of_model (build name))
  in
  Alcotest.(check string) "renamed model, same key" (key "x") (key "renamed")

let test_cache_canonical_twin_hits () =
  (* structural twins — the same program built with variables created in
     the opposite order and one row scaled by 3 — share one canonical
     entry; the second request is a hit and its values come back in its
     own variable frame *)
  let build flipped =
    let m = Ilp.Model.create () in
    let mk name = Ilp.Model.add_var m ~integer:true ~ub:Q.one name in
    let a, b =
      if flipped then
        let b = mk "b" in
        let a = mk "a" in
        (a, b)
      else
        let a = mk "a" in
        let b = mk "b" in
        (a, b)
    in
    let s = if flipped then q 3 else Q.one in
    Ilp.Model.add_constraint m
      (Ilp.Linexpr.of_terms [ (Q.mul s (q 10), a); (Q.mul s (q 20), b) ])
      Ilp.Model.Le (Q.mul s (q 25));
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (q 60, a); (q 100, b) ]);
    (m, a, b)
  in
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let m1, a1, b1 = build false in
  let m2, a2, b2 = build true in
  Alcotest.(check bool) "the models differ as built" false
    (String.equal (Ilp.Model.canonical m1) (Ilp.Model.canonical m2));
  Alcotest.(check string) "canonical keys agree"
    (Runtime.Solve_cache.canonical_key ~tag:"t" (Ilp.Canonical.of_model m1))
    (Runtime.Solve_cache.canonical_key ~tag:"t" (Ilp.Canonical.of_model m2));
  let s1 = Runtime.Solve_cache.(solve_ilp (prepare m1)) in
  let s2 = Runtime.Solve_cache.(solve_ilp (prepare m2)) in
  (* capacity 25 admits only item b: a = 0, b = 1, objective 100 *)
  List.iter
    (fun (s, a, b) ->
       Alcotest.(check string) "objective" "100" (Q.to_string (objective_exn s));
       Alcotest.(check string) "a = 0" "0"
         (Q.to_string (Ilp.Solution.value_exn s a));
       Alcotest.(check string) "b = 1" "1"
         (Q.to_string (Ilp.Solution.value_exn s b)))
    [ (s1, a1, b1); (s2, a2, b2) ];
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "one entry" 1 (Runtime.Solve_cache.size ())

let test_cache_replays_node_limit () =
  (* a model the budget cannot finish: the exceptional outcome is cached
     and replayed as the same exception *)
  let hard () =
    (* LP optimum y = 5/2 is fractional and the fractional objective
       coefficient defeats the integral-bound pruning, so the search must
       branch — which a single-node budget forbids *)
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~integer:true "x" in
    let y = Ilp.Model.add_var m ~integer:true "y" in
    Ilp.Model.add_constraint m
      (Ilp.Linexpr.of_terms [ (q (-2), x); (q 2, y) ])
      Ilp.Model.Le Q.one;
    Ilp.Model.add_constraint m
      (Ilp.Linexpr.of_terms [ (q 2, x); (q 2, y) ])
      Ilp.Model.Le (q 9);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linexpr.of_terms [ (Q.of_ints 1 2, y) ]);
    m
  in
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let solve () =
    Runtime.Solve_cache.(solve_ilp ~node_limit:1 (prepare (hard ())))
  in
  (match solve () with
   | _ -> Alcotest.fail "expected Node_limit_exceeded"
   | exception Ilp.Branch_bound.Node_limit_exceeded -> ());
  (match solve () with
   | _ -> Alcotest.fail "expected cached Node_limit_exceeded"
   | exception Ilp.Branch_bound.Node_limit_exceeded -> ());
  let { Runtime.Solve_cache.hits; misses; _ } = Runtime.Solve_cache.stats () in
  Alcotest.(check int) "solved once" 1 misses;
  Alcotest.(check int) "replayed once" 1 hits

let test_cache_single_flight () =
  (* eight concurrent requests for one key: the first installs the entry
     and solves, the other seven block on it and count as hits — the
     hit/miss totals match the sequential schedule exactly *)
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.reset_stats ();
  let results =
    Runtime.Pool.run_all ~jobs:4
      (List.init 8 (fun _ () ->
           Runtime.Solve_cache.(solve_ilp (prepare (knapsack_model ())))))
  in
  List.iter
    (fun s ->
       Alcotest.(check string) "every requester sees the optimum" "220"
         (Q.to_string (objective_exn s)))
    results;
  let { Runtime.Solve_cache.hits; misses; waited } =
    Runtime.Solve_cache.stats ()
  in
  Alcotest.(check int) "solved exactly once" 1 misses;
  Alcotest.(check int) "everyone else hits" 7 hits;
  (* how many blocked is a timing fact bounded by the hit count *)
  Alcotest.(check bool) "waited within hits" true (waited >= 0 && waited <= 7);
  Alcotest.(check int) "one entry" 1 (Runtime.Solve_cache.size ())

(* --- run cache ---------------------------------------------------------------- *)

let pspr = Tcsim.Memory_map.pspr_base
let lmu_nc = Tcsim.Memory_map.lmu_uncached_base
let dspr = Tcsim.Memory_map.dspr_base

let mk_prog ?(name = "p") ?(loads = 8) () =
  Tcsim.Program.make ~name
    [
      Tcsim.Program.I { pc = pspr; kind = Tcsim.Program.Compute 3 };
      Tcsim.Program.loop loads
        [ Tcsim.Program.I { pc = pspr; kind = Tcsim.Program.Load lmu_nc } ];
      Tcsim.Program.I { pc = pspr; kind = Tcsim.Program.Store dspr };
    ]

let mk_contender name =
  { Tcsim.Machine.program = mk_prog ~name ~loads:4 (); core = 1 }

let corun ?priorities ?(restart = false) ?kernel () =
  Runtime.Run_cache.run ?priorities ~restart_contenders:restart ?kernel
    ~trace:true
    ~analysis:{ Tcsim.Machine.program = mk_prog (); core = 0 }
    ~contenders:[ mk_contender "c" ]
    ()

let test_run_cache_hit_on_identical () =
  Runtime.Run_cache.clear ();
  let r1 = corun () in
  let r2 = corun () in
  Alcotest.(check bool) "identical result replayed" true (r1 = r2);
  let { Runtime.Run_cache.hits; misses; waited } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "nobody waited" 0 waited;
  Alcotest.(check int) "one entry" 1 (Runtime.Run_cache.size ())

let test_run_cache_key_sensitivity () =
  (* every input the outcome depends on perturbs the fingerprint; names
     do not (content addressing is semantic, as in Solve_cache) *)
  let fp ?(kernel = `Stepped) ?(restart = false) ?priorities ?(name = "a")
      ?(loads = 8) () =
    Runtime.Run_cache.fingerprint ~config:Tcsim.Machine.default_config
      ~max_cycles:1000 ~restart_contenders:restart ~priorities ~trace:false
      ~kernel
      ~analysis:{ Tcsim.Machine.program = mk_prog ~name ~loads (); core = 0 }
      ~contenders:[ mk_contender "c" ]
  in
  let base = fp () in
  Alcotest.(check string) "program names excluded" base (fp ~name:"b" ());
  let differs msg other = Alcotest.(check bool) msg false (String.equal base other) in
  differs "program content keyed" (fp ~loads:9 ());
  differs "kernel keyed" (fp ~kernel:`Event ());
  differs "restart flag keyed" (fp ~restart:true ());
  differs "priorities keyed" (fp ~priorities:[| 0; 1; 1 |] ())

let test_run_cache_kernels_share_nothing_but_agree () =
  (* the two kernels occupy distinct entries yet replay identical results *)
  Runtime.Run_cache.clear ();
  let s = corun ~kernel:`Stepped () in
  let e = corun ~kernel:`Event () in
  Alcotest.(check bool) "bit-identical across kernels" true (s = e);
  let { Runtime.Run_cache.misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "two entries, no aliasing" 2 misses

let test_run_cache_replays_cycle_limit () =
  Runtime.Run_cache.clear ();
  let spin () =
    Runtime.Run_cache.run ~max_cycles:50 ~restart_contenders:true
      ~analysis:{ Tcsim.Machine.program = mk_prog ~loads:500 (); core = 0 }
      ()
  in
  let observe () =
    match spin () with
    | _ -> Alcotest.fail "expected Cycle_limit_exceeded"
    | exception Tcsim.Machine.Cycle_limit_exceeded c -> c
  in
  let c1 = observe () in
  let c2 = observe () in
  Alcotest.(check int) "same payload replayed" c1 c2;
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "simulated once" 1 misses;
  Alcotest.(check int) "replayed once" 1 hits

let test_run_cache_single_flight () =
  Runtime.Run_cache.clear ();
  let results =
    Runtime.Pool.run_all ~jobs:4 (List.init 8 (fun _ () -> corun ()))
  in
  (match results with
   | r :: rest ->
     List.iter
       (fun r' ->
          Alcotest.(check bool) "every requester sees one result" true (r = r'))
       rest
   | [] -> Alcotest.fail "no results");
  let { Runtime.Run_cache.hits; misses; waited } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "simulated exactly once" 1 misses;
  Alcotest.(check int) "everyone else hits" 7 hits;
  Alcotest.(check bool) "waited within hits" true (waited >= 0 && waited <= 7);
  Alcotest.(check int) "one entry" 1 (Runtime.Run_cache.size ())

let test_run_cache_jobs_invariant () =
  (* the acceptance property: a mixed batch of requests produces the same
     results and the same hit/miss totals at jobs=1 and jobs=4 (only
     [waited], a timing fact, may differ) *)
  let batch () =
    List.init 12 (fun i () ->
        corun ~priorities:(if i mod 2 = 0 then [| 0; 0; 0 |] else [| 0; 1; 1 |]) ())
  in
  let observe jobs =
    Runtime.Run_cache.clear ();
    let rs = Runtime.Pool.run_all ~jobs (batch ()) in
    let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
    Alcotest.(check int) "entries gauge is the settled count"
      (Runtime.Run_cache.size ())
      (Obs.Metrics.gauge_value (Obs.Metrics.gauge "run_cache.entries"));
    (rs, hits, misses)
  in
  let r1, h1, m1 = observe 1 in
  let r4, h4, m4 = observe 4 in
  Alcotest.(check bool) "results identical across parallel degrees" true (r1 = r4);
  Alcotest.(check int) "hits invariant" h1 h4;
  Alcotest.(check int) "misses invariant" m1 m4;
  Alcotest.(check int) "two distinct co-runs in the batch" 2 m1;
  Alcotest.(check int) "the other ten hit" 10 h1

let test_failure_releases_the_key () =
  (* an uncached exception releases the key: every one of eight
     identical failing requests raises and counts as a miss — nothing
     hits, nothing settles — and waiters on a failed reservation
     re-reserve rather than hang, at any parallel degree *)
  let bad_core () =
    Runtime.Run_cache.run ~analysis:{ Tcsim.Machine.program = mk_prog (); core = 7 } ()
  in
  let negative_slack () =
    Runtime.Solve_cache.(solve_ilp ~slack:(q (-1)) (prepare (knapsack_model ())))
  in
  let check jobs name request stats size =
    let raised =
      Runtime.Pool.run_all ~jobs
        (List.init 8 (fun _ () ->
             match request () with
             | _ -> false
             | exception Invalid_argument _ -> true))
    in
    let label what = Printf.sprintf "%s at jobs=%d: %s" name jobs what in
    Alcotest.(check (list bool)) (label "every request raises")
      (List.init 8 (fun _ -> true)) raised;
    let hits, misses = stats () in
    Alcotest.(check int) (label "every request misses") 8 misses;
    Alcotest.(check int) (label "nothing hits") 0 hits;
    Alcotest.(check int) (label "nothing settles") 0 (size ())
  in
  List.iter
    (fun jobs ->
       Runtime.Run_cache.clear ();
       check jobs "run cache" bad_core
         (fun () ->
            let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
            (hits, misses))
         Runtime.Run_cache.size;
       Runtime.Solve_cache.clear ();
       check jobs "solve cache" negative_slack
         (fun () ->
            let { Runtime.Solve_cache.hits; misses; _ } =
              Runtime.Solve_cache.stats ()
            in
            (hits, misses))
         Runtime.Solve_cache.size)
    [ 1; 4 ]

let test_failed_reservation_wakes_waiters () =
  (* the table under both caches: requesters blocked on a reservation
     that fails wake up; one of them re-reserves and settles, the others
     hit its value *)
  let module S = Runtime.Single_flight in
  let t = S.create () in
  (match S.acquire t "k" with
   | `Reserved -> ()
   | `Hit _ -> Alcotest.fail "empty table hit");
  let waiters =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            match S.acquire t "k" with
            | `Reserved ->
              S.settle t "k" 42;
              None
            | `Hit (v, _) -> Some v))
  in
  Unix.sleepf 0.05;
  S.fail t "k";
  let outcomes = List.sort compare (List.map Domain.join waiters) in
  Alcotest.(check (list (option int))) "one re-reserves, the rest hit"
    [ None; Some 42; Some 42 ] outcomes;
  Alcotest.(check int) "one entry" 1 (S.size t)

(* --- solo runs sharing memo scripts through the cache ------------------------ *)

let memo_hits = Obs.Metrics.counter ~timing:true "tcsim.script_memo.hits"
let memo_misses = Obs.Metrics.counter ~timing:true "tcsim.script_memo.misses"

(* three requests around one analysis program: alone, traced against a
   contender, and prioritised against it *)
let related_runs () =
  let analysis = { Tcsim.Machine.program = mk_prog (); core = 0 } in
  [
    Runtime.Run_cache.run ~analysis ();
    Runtime.Run_cache.run ~restart_contenders:false ~trace:true ~analysis
      ~contenders:[ mk_contender "c" ] ();
    Runtime.Run_cache.run ~restart_contenders:false ~priorities:[| 0; 1; 1 |]
      ~analysis ~contenders:[ mk_contender "c" ] ();
  ]

let test_solo_runs_share_scripts_keyed_apart () =
  (* each request lands under its own key, while the runs that simulate
     read the scripts the earlier ones compiled from the script memo *)
  Runtime.Run_cache.clear ();
  let h0 = Obs.Metrics.value memo_hits in
  let first = related_runs () in
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "three requests simulated" 3 misses;
  Alcotest.(check int) "no hits yet" 0 hits;
  Alcotest.(check int) "later runs read the analysis script, the last the contender's too"
    3 (Obs.Metrics.value memo_hits - h0);
  let again = related_runs () in
  Alcotest.(check bool) "replays equal the simulated results" true (again = first);
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "every request replays" 3 hits;
  Alcotest.(check int) "nothing re-simulated" 3 misses;
  Alcotest.(check int) "replays check nothing out" 3 (Obs.Metrics.value memo_hits - h0)

let test_solo_runs_around_cycle_limit () =
  (* a run that raises returns its scripts and caches its outcome; the
     runs around it are unaffected *)
  Runtime.Run_cache.clear ();
  let heavy = { Tcsim.Machine.program = mk_prog ~loads:500 (); core = 0 } in
  let light = { Tcsim.Machine.program = mk_prog ~loads:2 (); core = 0 } in
  let runs () =
    List.map
      (fun (restart_contenders, analysis) ->
         match Runtime.Run_cache.run ~max_cycles:50 ~restart_contenders ~analysis () with
         | r -> Ok r
         | exception e -> Error e)
      [ (true, light); (true, heavy); (true, { light with Tcsim.Machine.core = 1 }) ]
  in
  let check_shape = function
    | [ Ok a; Error (Tcsim.Machine.Cycle_limit_exceeded c); Ok b ] ->
      Alcotest.(check bool) "limit payload past the budget" true (c > 50);
      Alcotest.(check bool) "runs around the failure finish" true
        (a.Tcsim.Machine.cycles > 0 && b.Tcsim.Machine.cycles > 0)
    | _ -> Alcotest.fail "expected [Ok; Error Cycle_limit; Ok]"
  in
  let first = runs () in
  check_shape first;
  let h0 = Obs.Metrics.value memo_hits in
  (* a larger budget is a new key: it simulates, reading the script the
     raising run returned *)
  (match
     Runtime.Run_cache.run ~max_cycles:1_000_000 ~restart_contenders:true
       ~analysis:heavy ()
   with
   | r -> Alcotest.(check bool) "finishes under a larger budget" true (r.Tcsim.Machine.cycles > 50)
   | exception _ -> Alcotest.fail "expected the heavy run to finish");
  Alcotest.(check int) "it read the raising run's script" 1 (Obs.Metrics.value memo_hits - h0);
  let again = runs () in
  check_shape again;
  let { Runtime.Run_cache.hits; misses; _ } = Runtime.Run_cache.stats () in
  Alcotest.(check int) "four simulations" 4 misses;
  Alcotest.(check int) "three replays, the cycle limit included" 3 hits

let test_clear_drops_memo () =
  (* a cold pass stays cold: after [clear] the first run compiles *)
  let analysis = { Tcsim.Machine.program = mk_prog ~name:"cold" ~loads:7 (); core = 0 } in
  ignore (Runtime.Run_cache.run ~analysis ());
  (* a new key over the same program reads the retained script *)
  let h0 = Obs.Metrics.value memo_hits in
  ignore (Runtime.Run_cache.run ~trace:true ~analysis ());
  Alcotest.(check int) "warm memo hits" 1 (Obs.Metrics.value memo_hits - h0);
  Runtime.Run_cache.clear ();
  Alcotest.(check int) "nothing retained" 0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge ~timing:true "tcsim.script_memo.segments"));
  let h0 = Obs.Metrics.value memo_hits and m0 = Obs.Metrics.value memo_misses in
  ignore (Runtime.Run_cache.run ~analysis ());
  Alcotest.(check int) "no hit after clear" 0 (Obs.Metrics.value memo_hits - h0);
  Alcotest.(check int) "the script compiles afresh" 1 (Obs.Metrics.value memo_misses - m0)

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves input order" `Quick test_map_preserves_order;
          Alcotest.test_case "tasks run exactly once" `Quick test_tasks_run_exactly_once;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "first input-order exception wins" `Quick
            test_first_exception_in_input_order;
          Alcotest.test_case "batch drains despite exception" `Quick
            test_all_tasks_complete_despite_exception;
          Alcotest.test_case "task counter" `Quick test_tasks_counter;
          Alcotest.test_case "AURIX_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "jobs beyond the domain limit rejected" `Quick
            test_jobs_beyond_domain_limit;
          Alcotest.test_case "pool reuse across batches" `Quick test_with_pool_reuse;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "nested run_all on workers" `Quick
            test_nested_run_all_on_workers;
          Alcotest.test_case "skewed-cost hammer (four domains)" `Quick
            test_skewed_hammer;
        ] );
      ( "solve-cache",
        [
          Alcotest.test_case "hit on identical model" `Quick test_cache_hit_on_identical_model;
          Alcotest.test_case "miss on perturbed model" `Quick test_cache_miss_on_perturbed_model;
          Alcotest.test_case "solver kind and params keyed" `Quick
            test_cache_distinguishes_solvers_and_params;
          Alcotest.test_case "names excluded from key" `Quick test_cache_key_ignores_names;
          Alcotest.test_case "structural twins hit canonically" `Quick
            test_cache_canonical_twin_hits;
          Alcotest.test_case "node-limit outcome replayed" `Quick test_cache_replays_node_limit;
          Alcotest.test_case "single flight under concurrency" `Quick
            test_cache_single_flight;
        ] );
      ( "run-cache",
        [
          Alcotest.test_case "hit on identical request" `Quick
            test_run_cache_hit_on_identical;
          Alcotest.test_case "key sensitivity" `Quick test_run_cache_key_sensitivity;
          Alcotest.test_case "kernels keyed apart yet agree" `Quick
            test_run_cache_kernels_share_nothing_but_agree;
          Alcotest.test_case "cycle-limit outcome replayed" `Quick
            test_run_cache_replays_cycle_limit;
          Alcotest.test_case "single flight under concurrency" `Quick
            test_run_cache_single_flight;
          Alcotest.test_case "hit/miss totals jobs-invariant" `Quick
            test_run_cache_jobs_invariant;
          Alcotest.test_case "uncached failure releases the key" `Quick
            test_failure_releases_the_key;
          Alcotest.test_case "failed reservation wakes its waiters" `Quick
            test_failed_reservation_wakes_waiters;
          Alcotest.test_case "solo runs share scripts, keyed apart" `Quick
            test_solo_runs_share_scripts_keyed_apart;
          Alcotest.test_case "solo runs around a cycle limit" `Quick
            test_solo_runs_around_cycle_limit;
          Alcotest.test_case "clear drops the script memo" `Quick test_clear_drops_memo;
        ] );
    ]
