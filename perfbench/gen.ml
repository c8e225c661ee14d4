(* Seeded input generation. Every workload input comes from here, drawn
   from a bench-local 48-bit LCG (drand48 constants: identical on every
   platform, independent of the global [Random] state), so the program
   under test only ever sees the generated programs and requests.

   A batch follows a fixed design: input [i] of [n] takes the middle of
   the [i]-th of [n] equal strata of the length range, the middles of
   fixed rotations of the strata of the other ranges, and a fixed
   scenario, load level and contender count. The seed picks the program
   seeds (access patterns, code layout) and the application input
   variant. Programs therefore change with the seed while the work of a
   batch stays put: letting the seed also move the sizes changed the
   simulated events of a batch by +-7%, and host times of different
   seeds would no longer be comparable. *)

type rng = { mutable state : int }

let mask = (1 lsl 48) - 1

let next r =
  r.state <- ((r.state * 0x5DEECE66D) + 0xB) land mask;
  r.state lsr 16

let create ~seed ~stream =
  let r = { state = ((seed * 0x9E3779B1) + (stream * 0x85EBCA6B) + 0x330E) land mask } in
  for _ = 1 to 4 do ignore (next r) done;
  r

let int r bound = next r mod bound

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* the middle of stratum [i mod n] of [n] equal strata of [0,1) *)
let stratum n i = (float_of_int (i mod n) +. 0.5) /. float_of_int n

let log_uniform ~lo ~hi u = lo *. Float.exp (u *. Float.log (hi /. lo))
let scenarios = [ Platform.Scenario.scenario1; Platform.Scenario.scenario2 ]

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* The control-loop generator wraps one period in a single outer loop;
   scaling its count stretches a program without changing its shape. *)
let scale_length prog factor =
  let items =
    List.map
      (function
        | Tcsim.Program.Loop { count; body } ->
          let count = max 1 (Float.to_int (Float.round (float_of_int count *. factor))) in
          Tcsim.Program.Loop { count; body }
        | i -> i)
      (Tcsim.Program.items prog)
  in
  Tcsim.Program.make ~name:(Tcsim.Program.name prog) items

(* The four input variants of the application for each scenario, built
   once per process. *)
let app_variants =
  let tbl =
    lazy
      (List.map
         (fun sc ->
            let v = Workload.Control_loop.variant_of_scenario sc in
            (sc.Platform.Scenario.name, Array.of_list (Workload.Control_loop.app_input_variants v ~n:4)))
         scenarios)
  in
  fun sc -> List.assoc sc.Platform.Scenario.name (Lazy.force tbl)

type contender_draw = {
  level : Workload.Load_gen.level;
  walk_u : float;
  local_u : float;
  iter_u : float;
  cseed : int;
}

(* contender [i] of [n]: level (i + level_shift) mod 3, and rotated
   strata of the table walk, compute and iteration ranges *)
let draw_contender r ~n ?(level_shift = 0) i =
  {
    level = List.nth Workload.Load_gen.all_levels ((i + level_shift) mod 3);
    walk_u = stratum n (i + 3);
    local_u = stratum n (i + 5);
    iter_u = stratum n (i + 6);
    cseed = int r 1_000_000;
  }

(* An H/M/L-based contender with a table walk in [40,440), scratchpad
   compute in [0,40000) and iterations scaled by [factor] x [0.5,1.5),
   each placed in its range by the draw. *)
let contender ~scenario ~slot ~factor d =
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  let p = Workload.Load_gen.params ~variant ~level:d.level ~region_slot:slot in
  let iterations =
    max 1
      (Float.to_int
         (Float.round (float_of_int p.Workload.Control_loop.iterations *. factor *. (0.5 +. d.iter_u))))
  in
  Workload.Control_loop.build variant
    {
      p with
      Workload.Control_loop.table_walk = 40 + Float.to_int (d.walk_u *. 400.);
      local_compute = Float.to_int (d.local_u *. 40_000.);
      seed = d.cseed;
      iterations;
    }

(* ------------------------------------------------------------------ *)
(* random-coruns: one batch of co-run cells                            *)
(* ------------------------------------------------------------------ *)

type cell = {
  scenario : Platform.Scenario.t;
  factor : float;
  app : Tcsim.Program.t;
  contenders : (Tcsim.Program.t * int) list;  (** program, core *)
}

(* Odd, so that the median and the p75 of many batches fall inside one
   design slot's cells rather than between two slots. *)
let cells_per_batch = 9

(* Batch [batch] of the run seeded [seed]: lengths log-uniform over
   [0.25, 10] (the Table 6 workloads run at about 10x in the paper), the
   scenarios alternating, and a second contender on core 2 in one cell
   per scenario. *)
let cells ~seed ~batch =
  let n = cells_per_batch in
  let r = create ~seed ~stream:(1000 + batch) in
  List.init n (fun i ->
      let scenario = List.nth scenarios (i mod 2) in
      let factor = log_uniform ~lo:0.25 ~hi:10. (stratum n i) in
      let app = scale_length (app_variants scenario).(int r 4) factor in
      let c1 = (contender ~scenario ~slot:1 ~factor (draw_contender r ~n i), 1) in
      let contenders =
        if i = 2 || i = 5 then
          [ c1; (contender ~scenario ~slot:2 ~factor (draw_contender r ~n ~level_shift:1 i), 2) ]
        else [ c1 ]
      in
      { scenario; factor; app; contenders })

(* ------------------------------------------------------------------ *)
(* exact-bounds: (application, contender) pairs to measure             *)
(* ------------------------------------------------------------------ *)

type pair = {
  pscenario : Platform.Scenario.t;
  papp : Tcsim.Program.t;
  pcontender : Tcsim.Program.t;
}

(* Three Scenario 1 and six Scenario 2 pairs, contender levels cycling
   within each scenario, lengths log-uniform over [0.25, 0.5]. The exact
   Scenario 2 solves are the slow third of the bounds, so the median
   falls inside the fast two thirds and the p75 tail inside the slow
   third. *)
let pair_design =
  Array.of_list
    (List.concat_map
       (fun (scenario, n) -> List.init n (fun i -> (scenario, n, i)))
       [ (Platform.Scenario.scenario1, 3); (Platform.Scenario.scenario2, 6) ])

(* Candidate [attempt] for design slot [slot]: the set-up may turn a
   candidate down and draw the next. *)
let pair ~seed ~slot ~attempt =
  let scenario, n, i = pair_design.(slot) in
  let r = create ~seed ~stream:(2000 + (64 * attempt) + slot) in
  let factor = log_uniform ~lo:0.25 ~hi:0.5 (stratum n i) in
  {
    pscenario = scenario;
    papp = scale_length (app_variants scenario).(int r 4) factor;
    pcontender = contender ~scenario ~slot:1 ~factor (draw_contender r ~n i);
  }

(* ------------------------------------------------------------------ *)
(* service-hits and service-fresh: analyze requests                     *)
(* ------------------------------------------------------------------ *)

(* Each service workload sends one class of request, so no end-to-end
   number depends on a traffic mix. Batch -1 is the set-up's. *)
type klass = Hit | Fresh | Reject

let klass_to_string = function Hit -> "hit" | Fresh -> "fresh" | Reject -> "reject"

let all_models = [ Serve.Protocol.Ftc; Serve.Protocol.Ilp_ptac; Serve.Protocol.Ideal ]

let analyze ~id ~scenario contender =
  {
    Serve.Protocol.id;
    scenario = scenario.Platform.Scenario.name;
    app = Serve.Protocol.App_bundled;
    contenders = [ contender ];
    models = all_models;
    observed = true;
    trace = None;
  }

(* The six bundled (scenario, load level) queries: what the repository's
   own callers ask, `aurix_contention query --load L --observed` in CI
   and the bench's earlier serve replay. *)
let replay_queries =
  List.concat_map
    (fun scenario ->
       List.map
         (fun level -> analyze ~id:"replay" ~scenario (Serve.Protocol.Con_level { level; core = 1 }))
         Workload.Load_gen.all_levels)
    scenarios

(* 3000 requests, about 0.1 s: long enough that the probe sample after
   each batch costs little *)
let replays_per_batch = 500

(* Batch [batch] of service-hits: every replay query [replays_per_batch]
   times, in a seeded order. *)
let hits ~seed ~batch =
  let r = create ~seed ~stream:(4000 + batch) in
  let reqs = Array.of_list (List.concat (List.init replays_per_batch (fun _ -> replay_queries))) in
  shuffle r reqs;
  Array.to_list (Array.mapi (fun i q -> { q with Serve.Protocol.id = Printf.sprintf "b%d-r%d" batch i }) reqs)

(* [n] seeded inline contenders on core 1, the scenarios alternating and
   lengths log-uniform over [0.25, 1]. Laid out in memory slot 1 they are
   fresh work; in slot 0, the application's own, admission must reject
   them as a map overlap. *)
let inline_requests ~seed ~stream ~slot ~prefix n =
  let r = create ~seed ~stream in
  List.init n (fun i ->
      let scenario = List.nth scenarios (i mod 2) in
      let factor = log_uniform ~lo:0.25 ~hi:1. (stratum n i) in
      let id = Printf.sprintf "%s%d" prefix i in
      let prog = contender ~scenario ~slot ~factor (draw_contender r ~n i) in
      analyze ~id ~scenario
        (Serve.Protocol.Con_inline
           { ccore = 1; cprogram = { Serve.Protocol.pname = id; pitems = Tcsim.Program.items prog } }))

(* Odd, for the reason [cells_per_batch] is. *)
let fresh_per_batch = 9

let fresh ?(n = fresh_per_batch) ~seed ~batch () =
  inline_requests ~seed ~stream:(5000 + batch) ~slot:1 ~prefix:(Printf.sprintf "b%d-f" batch) n

let rejects ~seed ~batch = inline_requests ~seed ~stream:(6000 + batch) ~slot:0 ~prefix:(Printf.sprintf "b%d-x" batch) 4
