(* Tests for the TC27x simulator: caches, programs, memory map, SRI timing
   (Table 2 reproduction at single-access granularity), arbitration and
   counter semantics. *)

open Platform
open Tcsim

let lat = Latency.default

(* Handy addresses *)
let pspr = Memory_map.pspr_base
let dspr = Memory_map.dspr_base
let lmu_nc = Memory_map.lmu_uncached_base
let lmu_c = Memory_map.lmu_cached_base
let pf0_c = Memory_map.pf0_cached_base
let pf1_c = Memory_map.pf1_cached_base
let dfl = Memory_map.dfl_base

let prog name items = Program.make ~name items
let compute ?(pc = pspr) n = Program.I { pc; kind = Program.Compute n }
let load ?(pc = pspr) addr = Program.I { pc; kind = Program.Load addr }
let store ?(pc = pspr) addr = Program.I { pc; kind = Program.Store addr }

let run ?(core = 0) p = Machine.run_isolation ~core p
let cycles p = (run p).cycles

(* --- memory map -------------------------------------------------------------- *)

let test_memory_map_classify () =
  let check msg addr expected =
    Alcotest.(check string) msg expected
      (Format.asprintf "%a" Memory_map.pp_region (Memory_map.classify addr))
  in
  check "dspr" dspr "dspr";
  check "pspr" pspr "pspr";
  check "pf0 cached" pf0_c "sri:pf0($)";
  check "pf1 cached" pf1_c "sri:pf1($)";
  check "pf0 uncached" Memory_map.pf0_uncached_base "sri:pf0(n$)";
  check "lmu cached" lmu_c "sri:lmu($)";
  check "lmu uncached" lmu_nc "sri:lmu(n$)";
  check "dfl" dfl "sri:dfl(n$)";
  Alcotest.(check bool) "unmapped" true (Memory_map.classify_opt 0x1234 = None);
  Alcotest.check_raises "classify unmapped raises"
    (Invalid_argument "Memory_map.classify: 0x1234 unmapped") (fun () ->
        ignore (Memory_map.classify 0x1234))

let test_memory_map_windows () =
  List.iter
    (fun target ->
       let base = Memory_map.base_of target ~cacheable:false in
       (match Memory_map.classify base with
        | Memory_map.Sri (t, false) ->
          Alcotest.(check string) "uncached window target"
            (Target.to_string target) (Target.to_string t)
        | _ -> Alcotest.fail "expected uncached SRI region");
       if not (Target.equal target Target.Dfl) then
         match Memory_map.classify (Memory_map.base_of target ~cacheable:true) with
         | Memory_map.Sri (t, true) ->
           Alcotest.(check string) "cached window target"
             (Target.to_string target) (Target.to_string t)
         | _ -> Alcotest.fail "expected cached SRI region")
    [ Target.Pf0; Target.Pf1; Target.Lmu; Target.Dfl ];
  Alcotest.check_raises "no cacheable dfl window"
    (Invalid_argument "Memory_map.base_of: data flash has no cacheable view")
    (fun () -> ignore (Memory_map.base_of Target.Dfl ~cacheable:true))

let test_line_of () =
  Alcotest.(check int) "aligns down" 0x80000020 (Memory_map.line_of 0x8000003F);
  Alcotest.(check int) "aligned stays" 0x80000020 (Memory_map.line_of 0x80000020)

(* --- cache ------------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 32 } in
  (match Cache.access c ~addr:0x1000 ~write:false with
   | Cache.Miss { victim = None } -> ()
   | _ -> Alcotest.fail "cold access should miss cleanly");
  (match Cache.access c ~addr:0x1004 ~write:false with
   | Cache.Hit -> ()
   | _ -> Alcotest.fail "same line should hit");
  Alcotest.(check int) "1 hit" 1 (Cache.hits c);
  Alcotest.(check int) "1 miss" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 256 B, 2 ways, 32 B lines -> 4 sets; set = (addr/32) mod 4 *)
  let c = Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 32 } in
  let a0 = 0x0000 (* set 0 *) in
  let a1 = 0x0080 (* set 0 (128 = 4*32) *) in
  let a2 = 0x0100 (* set 0 *) in
  ignore (Cache.access c ~addr:a0 ~write:false);
  ignore (Cache.access c ~addr:a1 ~write:false);
  (* touch a0 so a1 is LRU *)
  ignore (Cache.access c ~addr:a0 ~write:false);
  ignore (Cache.access c ~addr:a2 ~write:false);
  Alcotest.(check bool) "a0 survives" true (Cache.probe c ~addr:a0);
  Alcotest.(check bool) "a1 evicted" false (Cache.probe c ~addr:a1);
  Alcotest.(check bool) "a2 present" true (Cache.probe c ~addr:a2)

let test_cache_dirty_victim () =
  let c = Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 32 } in
  ignore (Cache.access c ~addr:0x0000 ~write:true);
  ignore (Cache.access c ~addr:0x0080 ~write:false);
  (* both ways of set 0 full; 0x0000 dirty and LRU *)
  (match Cache.access c ~addr:0x0100 ~write:false with
   | Cache.Miss { victim = Some v } -> Alcotest.(check int) "victim addr" 0x0000 v
   | Cache.Miss { victim = None } -> Alcotest.fail "expected dirty victim"
   | Cache.Hit -> Alcotest.fail "expected miss")

let test_cache_clean_victim_silent () =
  let c = Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 32 } in
  ignore (Cache.access c ~addr:0x0000 ~write:false);
  ignore (Cache.access c ~addr:0x0080 ~write:false);
  (match Cache.access c ~addr:0x0100 ~write:false with
   | Cache.Miss { victim = None } -> ()
   | _ -> Alcotest.fail "clean victims drop silently")

let test_cache_write_hit_dirties () =
  let c = Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 32 } in
  ignore (Cache.access c ~addr:0x0000 ~write:false);
  ignore (Cache.access c ~addr:0x0004 ~write:true);
  ignore (Cache.access c ~addr:0x0080 ~write:false);
  (match Cache.access c ~addr:0x0100 ~write:false with
   | Cache.Miss { victim = Some v } ->
     Alcotest.(check int) "write-hit marked line dirty" 0x0000 v
   | _ -> Alcotest.fail "expected dirty victim after write hit")

(* Set 0 of a 4-set, 2-way cache holds lines 0x000, 0x080, 0x100, ... *)
let test_cache_snapshot () =
  let snap accesses =
    let c = Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 32 } in
    List.iter (fun (addr, write) -> ignore (Cache.access c ~addr ~write)) accesses;
    let buf = Array.make (Cache.lines c) 0 in
    Cache.snapshot c buf ~pos:0;
    buf
  in
  let r addr = (addr, false) in
  let a = snap [ r 0x000; r 0x080 ] in
  Alcotest.(check int) "one slot per line" 8 (Array.length a);
  (* 0x100 fills way 0, 0x000 way 1, and 0x080 evicts 0x100: the ways
     are swapped relative to [a], the recency order is the same *)
  Alcotest.(check (array int)) "way positions do not show" a
    (snap [ r 0x100; r 0x000; r 0x080 ]);
  Alcotest.(check bool) "recency order shows" false (a = snap [ r 0x080; r 0x000 ]);
  Alcotest.(check bool) "dirtiness shows" false (a = snap [ (0x000, true); r 0x080 ]);
  Alcotest.(check bool) "invalid ways show" false (a = snap [ r 0x080 ])

let test_cache_flush () =
  let c = Cache.create Cache.tc16p_dcache in
  ignore (Cache.access c ~addr:0x9000_0000 ~write:true);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.probe c ~addr:0x9000_0000)

let test_cache_bad_geometry () =
  Alcotest.check_raises "line not power of 2"
    (Invalid_argument "Cache.create: line size must be a power of two")
    (fun () -> ignore (Cache.create { Cache.size_bytes = 256; ways = 2; line_bytes = 24 }))

(* --- program & walker ---------------------------------------------------------- *)

let test_walker_flat () =
  let p = prog "flat" [ compute 1; compute 2; compute 3 ] in
  Alcotest.(check int) "static" 3 (Program.static_size p);
  Alcotest.(check int) "dynamic" 3 (Program.dynamic_length p);
  let w = Program.Walker.create p in
  let rec drain acc =
    match Program.Walker.next w with
    | Some i -> drain (i.Program.kind :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check int) "3 instrs" 3 (List.length (drain []));
  Alcotest.(check int) "executed" 3 (Program.Walker.executed w)

let test_walker_loops () =
  let p =
    prog "loops"
      [
        compute 1;
        Program.loop 3 [ compute 1; Program.loop 2 [ compute 1 ] ];
        compute 1;
      ]
  in
  (* 1 + 3*(1 + 2*1) + 1 = 11 *)
  Alcotest.(check int) "dynamic length" 11 (Program.dynamic_length p);
  let w = Program.Walker.create p in
  let n = ref 0 in
  while Program.Walker.next w <> None do incr n done;
  Alcotest.(check int) "walker count" 11 !n;
  Program.Walker.reset w;
  let n2 = ref 0 in
  while Program.Walker.next w <> None do incr n2 done;
  Alcotest.(check int) "after reset" 11 !n2

(* The loop-boundary hooks loop replay relies on: a new iteration is
   reported before its first instruction is compiled, an inner loop
   re-entered by its enclosing one is a new instance, and skipping a
   loop counts every instruction it would have run. *)
let test_walker_boundaries () =
  let p =
    prog "b"
      [ compute 1; Program.loop 3 [ compute 2; Program.loop 2 [ compute 3 ] ]; compute 4 ]
  in
  let w = Program.Walker.create p in
  let step () =
    let i = Option.get (Program.Walker.next w) in
    let d = Program.Walker.restarted w in
    ( (match i.Program.kind with Program.Compute n -> n | _ -> 0),
      d,
      if d >= 0 then Program.Walker.instance w d else 0 )
  in
  let trace = List.init 10 (fun _ -> step ()) in
  Alcotest.(check (list (pair int int)))
    "restarting frame per instruction"
    [ (1, -1); (2, -1); (3, -1); (3, 2); (2, 1); (3, -1); (3, 2); (2, 1); (3, -1); (3, 2) ]
    (List.map (fun (k, d, _) -> (k, d)) trace);
  let inner = List.filter_map (fun (_, d, id) -> if d = 2 then Some id else None) trace in
  Alcotest.(check int) "each inner entry is a fresh instance" 3
    (List.length (List.sort_uniq compare inner));
  Alcotest.(check int) "outer iteration length" 3 (Program.Walker.iteration_length w 1);
  Alcotest.(check int) "inner instance of the outer frame is stable" 1
    (List.length
       (List.sort_uniq compare
          (List.filter_map (fun (_, d, id) -> if d = 1 then Some id else None) trace)));
  (* replay the outer loop from its second boundary: the walker resumes
     after it, having counted all three iterations *)
  let w = Program.Walker.create p in
  let rec until_outer () =
    ignore (Program.Walker.next w);
    if Program.Walker.restarted w <> 1 then until_outer ()
  in
  until_outer ();
  Alcotest.(check int) "iterations left" 2 (Program.Walker.iterations_left w 1);
  Program.Walker.skip_loop w 1;
  Alcotest.(check bool) "resumes after the loop" true
    (match Program.Walker.next w with
     | Some { Program.kind = Program.Compute 4; _ } -> true
     | _ -> false);
  Alcotest.(check int) "executed counts the skipped iterations"
    (Program.dynamic_length p) (Program.Walker.executed w);
  Alcotest.(check bool) "then ends" true (Program.Walker.next w = None)

(* Skipping some of a loop's iterations: the walker resumes at the
   start of the iteration after them, counting every skipped
   instruction, with the loop instance unchanged and the enclosing
   frames' iteration lengths whole. The skip comes at a boundary whose
   first instruction an inner loop returned, so that inner loop is left
   too and re-entered as a new instance. Instructions are told apart by
   their compute cycles. *)
let test_walker_partial_skip () =
  let p =
    prog "s"
      [
        compute 1;
        Program.loop 2
          [ compute 2; Program.loop 5 [ Program.loop 2 [ compute 3 ]; compute 4 ] ];
      ]
  in
  let w = Program.Walker.create p in
  let next () =
    match Program.Walker.next w with
    | Some { Program.kind = Program.Compute n; _ } -> n
    | _ -> 0
  in
  (* 1 2 3 3 4, then the middle loop's first boundary *)
  for _ = 1 to 5 do ignore (next ()) done;
  Alcotest.(check int) "a boundary's first instruction" 3 (next ());
  Alcotest.(check int) "of the middle loop" 2 (Program.Walker.restarted w);
  let middle = Program.Walker.instance w 2 and inner = Program.Walker.instance w 3 in
  Alcotest.(check int) "iterations left" 4 (Program.Walker.iterations_left w 2);
  Alcotest.(check int) "iteration length" 3 (Program.Walker.iteration_length w 2);
  Program.Walker.skip_iterations w 2 2;
  Alcotest.(check int) "executed counts the two skipped iterations" 11
    (Program.Walker.executed w);
  Alcotest.(check int) "two iterations left" 2 (Program.Walker.iterations_left w 2);
  Alcotest.(check int) "the same loop instance" middle (Program.Walker.instance w 2);
  Alcotest.(check int) "resumes at the next iteration's start" 3 (next ());
  Alcotest.(check int) "which is no boundary" (-1) (Program.Walker.restarted w);
  Alcotest.(check bool) "in a new inner instance" true (Program.Walker.instance w 3 <> inner);
  Alcotest.(check (list int)) "and runs on" [ 3; 4 ] (List.init 2 (fun _ -> next ()));
  Alcotest.(check int) "the next boundary" 3 (next ());
  Alcotest.(check int) "is the middle loop's" 2 (Program.Walker.restarted w);
  Alcotest.(check int) "with a whole iteration length" 3 (Program.Walker.iteration_length w 2);
  Alcotest.(check int) "and one iteration left" 1 (Program.Walker.iterations_left w 2);
  Alcotest.(check (list int)) "the outer loop restarts" [ 3; 4; 2 ]
    (List.init 3 (fun _ -> next ()));
  Alcotest.(check int) "at its own boundary" 1 (Program.Walker.restarted w);
  Alcotest.(check int) "whose iteration counted the skipped ones" 16
    (Program.Walker.iteration_length w 1);
  (* all iterations left: the loop is left *)
  ignore (next ());
  Alcotest.(check int) "a fresh middle instance" 5 (Program.Walker.iterations_left w 2);
  for _ = 1 to 3 do ignore (next ()) done;
  Alcotest.(check int) "at its first boundary" 2 (Program.Walker.restarted w);
  Program.Walker.skip_iterations w 2 4;
  Alcotest.(check int) "executed counts the whole program" (Program.dynamic_length p)
    (Program.Walker.executed w);
  Alcotest.(check bool) "which ends" true (Program.Walker.next w = None)

let test_walker_zero_loop () =
  let p = prog "z" [ Program.loop 0 [ compute 1 ]; compute 1 ] in
  Alcotest.(check int) "zero loop skipped" 1 (Program.dynamic_length p);
  let w = Program.Walker.create p in
  let n = ref 0 in
  while Program.Walker.next w <> None do incr n done;
  Alcotest.(check int) "executes 1" 1 !n

let test_program_validation () =
  Alcotest.check_raises "Compute 0 rejected"
    (Invalid_argument "Program.make: Compute below 1 cycle") (fun () ->
        ignore (prog "bad" [ compute 0 ]));
  Alcotest.check_raises "negative loop"
    (Invalid_argument "Program.make: negative loop count") (fun () ->
        ignore (prog "bad" [ Program.loop (-1) [ compute 1 ] ]))

let test_seq_layout () =
  let items = Program.seq ~pc_base:0x100 ~pc_stride:4 [ Program.Compute 1; Program.Compute 1 ] in
  match items with
  | [ Program.I a; Program.I b ] ->
    Alcotest.(check int) "pc0" 0x100 a.Program.pc;
    Alcotest.(check int) "pc1" 0x104 b.Program.pc
  | _ -> Alcotest.fail "expected two instrs"

(* --- program identity ------------------------------------------------------------ *)

(* Tiny value alphabets make near-collisions common: equal lists, lists
   one field apart, and the same instructions bracketed differently. *)
let gen_small_items =
  let open QCheck.Gen in
  let value = oneofl [ -8; -4; -1; 0; 1; 4 ] in
  let kind =
    oneof
      [
        map (fun n -> Program.Compute n) (oneofl [ 1; 2 ]);
        map (fun a -> Program.Load a) value;
        map (fun a -> Program.Store a) value;
      ]
  in
  fix
    (fun self depth ->
       list_size (0 -- 3)
         (frequency
            ((3, map2 (fun pc kind -> Program.I { pc; kind }) value kind)
             ::
             (if depth = 0 then []
              else
                [
                  ( 1,
                    map2
                      (fun count body -> Program.Loop { count; body })
                      (0 -- 2) (self (depth - 1)) );
                ]))))
    2

(* a structurally equal list that shares no block with the original *)
let rec copy_items items =
  List.map
    (function
      | Program.I { pc; kind } ->
        Program.I
          {
            pc;
            kind =
              (match kind with
               | Program.Compute n -> Program.Compute n
               | Program.Load a -> Program.Load a
               | Program.Store a -> Program.Store a);
          }
      | Program.Loop { count; body } -> Program.Loop { count; body = copy_items body })
    items

let prop_digest_iff_items =
  QCheck.Test.make ~name:"digest a = digest b iff items a = items b" ~count:2000
    QCheck.(
      make
        ~print:(fun (a, b, _) ->
            Printf.sprintf "%d vs %d items" (List.length a) (List.length b))
        Gen.(triple gen_small_items gen_small_items bool))
    (fun (a, b, twin) ->
       let b = if twin then copy_items a else b in
       (* names are not part of a program's identity *)
       let pa = prog "a" a and pb = prog "b" b in
       Bool.equal
         (String.equal (Program.digest pa) (Program.digest pb))
         (Program.items pa = Program.items pb))

let test_digest_perturbations () =
  let base =
    [
      compute ~pc:0x10 3;
      Program.loop 2 [ load ~pc:0x14 (-8); store ~pc:0x18 0x40 ];
      Program.loop 0 [];
    ]
  in
  let d items = Program.digest (prog "p" items) in
  let same msg items = Alcotest.(check string) msg (d base) (d items) in
  let differs msg items =
    Alcotest.(check bool) msg false (String.equal (d base) (d items))
  in
  same "an equal program" (copy_items base);
  Alcotest.(check string)
    "the name is not hashed" (d base)
    (Program.digest (prog "another name" base));
  differs "pc"
    [
      compute ~pc:0x11 3;
      Program.loop 2 [ load ~pc:0x14 (-8); store ~pc:0x18 0x40 ];
      Program.loop 0 [];
    ];
  differs "operand"
    [
      compute ~pc:0x10 3;
      Program.loop 2 [ load ~pc:0x14 (-4); store ~pc:0x18 0x40 ];
      Program.loop 0 [];
    ];
  differs "kind tag"
    [
      compute ~pc:0x10 3;
      Program.loop 2 [ store ~pc:0x14 (-8); store ~pc:0x18 0x40 ];
      Program.loop 0 [];
    ];
  differs "loop count"
    [
      compute ~pc:0x10 3;
      Program.loop 3 [ load ~pc:0x14 (-8); store ~pc:0x18 0x40 ];
      Program.loop 0 [];
    ];
  differs "a body item moved across the loop end"
    [
      compute ~pc:0x10 3;
      Program.loop 2 [ load ~pc:0x14 (-8) ];
      store ~pc:0x18 0x40;
      Program.loop 0 [];
    ];
  differs "an empty loop dropped"
    [ compute ~pc:0x10 3; Program.loop 2 [ load ~pc:0x14 (-8); store ~pc:0x18 0x40 ] ];
  differs "an item moved into the empty loop"
    [
      compute ~pc:0x10 3;
      Program.loop 2 [ load ~pc:0x14 (-8) ];
      Program.loop 0 [ store ~pc:0x18 0x40 ];
    ];
  let p = prog "p" base in
  Alcotest.(check bool)
    "taken once, kept" true
    (Program.digest p == Program.digest p)

(* --- single-access SRI timing (Table 2) --------------------------------------- *)

(* Baseline-vs-access cycle delta: the access adds (end-to-end latency + 1
   commit cycle). *)
let single_access_delta kind_addr =
  let base = prog "base" [ compute 5 ] in
  let with_access = prog "acc" [ compute 5; kind_addr ] in
  cycles with_access - cycles base

let test_single_load_latencies () =
  let check msg addr target =
    Alcotest.(check int) msg
      (Latency.lmax lat target Op.Data + 1)
      (single_access_delta (load addr))
  in
  check "lmu data = 11+1" lmu_nc Target.Lmu;
  check "dfl data = 43+1" dfl Target.Dfl

let test_single_store_latency () =
  Alcotest.(check int) "lmu store = 11+1"
    (Latency.lmax lat Target.Lmu Op.Data + 1)
    (single_access_delta (store lmu_nc))

let test_single_fetch_latency () =
  (* One instruction fetched cold from cached pf0: one I$ miss. *)
  let p = prog "fetch" [ compute ~pc:pf0_c 5 ] in
  let r = run p in
  Alcotest.(check int) "pcache_miss" 1 r.Machine.analysis.Machine.counters.Counters.pcache_miss;
  Alcotest.(check int) "cycles = lmax(pf,co) + 5"
    (Latency.lmax lat Target.Pf0 Op.Code + 5)
    r.Machine.cycles

let test_store_to_pflash_rejected () =
  let p = prog "bad" [ store pf0_c ] in
  (try
     ignore (run p);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- stall counters ------------------------------------------------------------ *)

let test_stall_floor_lmu () =
  (* A single uncached LMU load stalls exactly cs(lmu,da) = 10 cycles. *)
  let p = prog "lmu" [ compute 5; load lmu_nc ] in
  let r = run p in
  Alcotest.(check int) "DMEM_STALL = cs(lmu,da)"
    (Latency.min_stall lat Target.Lmu Op.Data)
    r.Machine.analysis.Machine.counters.Counters.dmem_stall

let test_streaming_code_stall () =
  (* Long sequential cacheable code run from pf0: after warm-up, line
     fetches stream at lmin and the per-miss stall bottoms out at
     cs(pf,co). *)
  let n = 512 in
  let kinds = List.init n (fun _ -> Program.Compute 1) in
  let p = prog "stream" (Program.seq ~pc_base:pf0_c kinds) in
  let r = run p in
  let c = r.Machine.analysis.Machine.counters in
  let misses = c.Counters.pcache_miss in
  Alcotest.(check int) "one miss per 32B line (8 instrs)" (n / 8) misses;
  (* first miss is cold (stall 10), the rest stream (stall 6 each) *)
  let expected =
    (Latency.lmax lat Target.Pf0 Op.Code - Latency.lmin lat Target.Pf0 Op.Code
     + Latency.min_stall lat Target.Pf0 Op.Code)
    + ((misses - 1) * Latency.min_stall lat Target.Pf0 Op.Code)
  in
  Alcotest.(check int) "PMEM_STALL = cold + streaming misses" expected
    c.Counters.pmem_stall

let test_scratchpad_silent () =
  (* Pure scratchpad execution: no SRI traffic, no stalls, no misses. *)
  let kinds = List.init 64 (fun i -> if i mod 2 = 0 then Program.Load (dspr + (i * 4)) else Program.Compute 2) in
  let p = prog "local" (Program.seq ~pc_base:pspr kinds) in
  let r = run p in
  let c = r.Machine.analysis.Machine.counters in
  Alcotest.(check int) "no pmem stall" 0 c.Counters.pmem_stall;
  Alcotest.(check int) "no dmem stall" 0 c.Counters.dmem_stall;
  Alcotest.(check int) "no pcache miss" 0 c.Counters.pcache_miss;
  Alcotest.(check int) "no SRI traffic" 0
    (Access_profile.total r.Machine.analysis.Machine.profile)

let test_counters_valid () =
  let kinds =
    List.init 128 (fun i ->
        if i mod 3 = 0 then Program.Load (lmu_nc + (i * 4) mod Memory_map.lmu_size)
        else Program.Compute 1)
  in
  let p = prog "mixed" (Program.seq ~pc_base:pf0_c kinds) in
  let r = run p in
  Alcotest.(check bool) "counters valid" true
    (Counters.is_valid r.Machine.analysis.Machine.counters)

(* --- dcache behaviour ----------------------------------------------------------- *)

let test_dcache_hits_no_sri () =
  (* Repeatedly touching one cacheable LMU line: 1 miss then hits. *)
  let p =
    prog "dc"
      [
        compute 1;
        load lmu_c;
        Program.loop 50 [ load (lmu_c + 4) ];
      ]
  in
  let r = run p in
  let c = r.Machine.analysis.Machine.counters in
  Alcotest.(check int) "one clean miss" 1 c.Counters.dcache_miss_clean;
  Alcotest.(check int) "no dirty miss" 0 c.Counters.dcache_miss_dirty;
  Alcotest.(check int) "one SRI data access" 1
    (Access_profile.get r.Machine.analysis.Machine.profile Target.Lmu Op.Data)

let test_dcache_dirty_writeback () =
  (* Write a region larger than the 8 KiB D$, twice: second pass evicts
     dirty lines -> DMD > 0 and extra (folded) LMU transactions. *)
  let span = 16 * 1024 in
  let stores =
    List.init (span / 32) (fun i -> Program.Store (lmu_c + (i * 32) mod Memory_map.lmu_size))
  in
  let p = prog "dirty" [ Program.loop 2 (Program.seq ~pc_base:pspr stores) ] in
  let r = run p in
  let c = r.Machine.analysis.Machine.counters in
  Alcotest.(check bool) "dirty misses occurred" true (c.Counters.dcache_miss_dirty > 0);
  Alcotest.(check int) "every miss is a single folded SRI access"
    (c.Counters.dcache_miss_clean + c.Counters.dcache_miss_dirty)
    (Access_profile.get r.Machine.analysis.Machine.profile Target.Lmu Op.Data)

let test_e16_has_no_dcache () =
  let p = prog "e16" [ compute 1; Program.loop 20 [ load lmu_c ] ] in
  let r = Machine.run_isolation ~core:2 p in
  let c = r.Machine.analysis.Machine.counters in
  (* without a D$ every load goes to the SRI *)
  Alcotest.(check int) "no d$ miss counters" 0
    (c.Counters.dcache_miss_clean + c.Counters.dcache_miss_dirty);
  Alcotest.(check int) "20+ SRI accesses" 20
    (Access_profile.get r.Machine.analysis.Machine.profile Target.Lmu Op.Data)

(* --- contention --------------------------------------------------------------- *)

let contender_hammer target_addr n =
  prog "hammer" [ Program.loop n [ load target_addr ] ]

let test_parallel_targets_no_contention () =
  (* Analysis on LMU, contender on DFL: distinct SRI slaves, no slowdown. *)
  let p = prog "a" [ compute 1; Program.loop 40 [ load lmu_nc ] ] in
  let iso = (Machine.run_isolation ~core:0 p).Machine.cycles in
  let co =
    Machine.run ~analysis:{ Machine.program = p; core = 0 }
      ~contenders:[ { Machine.program = contender_hammer dfl 10_000; core = 1 } ]
      ()
  in
  Alcotest.(check int) "no slowdown on disjoint targets" iso co.Machine.cycles

let test_same_target_bounded_delay () =
  (* Same LMU target: each of the n requests can wait at most one co-runner
     service (round-robin, one contender). *)
  let n = 40 in
  let p = prog "a" [ compute 1; Program.loop n [ load lmu_nc ] ] in
  let iso = (Machine.run_isolation ~core:0 p).Machine.cycles in
  let co =
    Machine.run ~analysis:{ Machine.program = p; core = 0 }
      ~contenders:[ { Machine.program = contender_hammer (lmu_nc + 64) 100_000; core = 1 } ]
      ()
  in
  let slowdown = co.Machine.cycles - iso in
  Alcotest.(check bool) "some contention" true (slowdown > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delay %d <= n * lmax (%d)" slowdown
       (n * Latency.lmax lat Target.Lmu Op.Data))
    true
    (slowdown <= n * Latency.lmax lat Target.Lmu Op.Data)

let test_round_robin_fairness () =
  (* Two identical hammer tasks on one target finish within ~one service
     time of each other per request. *)
  let n = 200 in
  let mk core = { Machine.program = contender_hammer (lmu_nc + (core * 128)) n; core } in
  let r =
    Machine.run ~restart_contenders:false ~analysis:(mk 0)
      ~contenders:[ mk 1 ] ()
  in
  let served0 = Access_profile.total r.Machine.analysis.Machine.profile in
  let served1 =
    match r.Machine.contenders with
    | [ (_, c) ] -> Access_profile.total c.Machine.profile
    | _ -> Alcotest.fail "one contender expected"
  in
  Alcotest.(check int) "analysis all served" n served0;
  (* by the time the analysis task finished, the symmetric contender must
     have been served a comparable amount *)
  Alcotest.(check bool)
    (Printf.sprintf "fair service (%d vs %d)" served0 served1)
    true
    (abs (served0 - served1) <= n / 10 + 2)

let test_contender_restarts () =
  let short = prog "short" [ Program.loop 5 [ load lmu_nc ] ] in
  let long_ = prog "long" [ compute 1; Program.loop 2000 [ load (lmu_nc + 64) ] ] in
  let r =
    Machine.run ~analysis:{ Machine.program = long_; core = 0 }
      ~contenders:[ { Machine.program = short; core = 1 } ]
      ()
  in
  (match r.Machine.contenders with
   | [ (_, c) ] -> Alcotest.(check bool) "restarted" true (c.Machine.restarts > 1)
   | _ -> Alcotest.fail "one contender expected")

let test_machine_validation () =
  let p = prog "p" [ compute 1 ] in
  (try
     ignore
       (Machine.run ~analysis:{ Machine.program = p; core = 0 }
          ~contenders:[ { Machine.program = p; core = 0 } ]
          ());
     Alcotest.fail "expected clash rejection"
   with Invalid_argument _ -> ());
  (try
     ignore (Machine.run_isolation ~core:7 p);
     Alcotest.fail "expected range rejection"
   with Invalid_argument _ -> ())

let test_cycle_limit () =
  let p = prog "p" [ Program.loop 1_000_000 [ compute 10 ] ] in
  (try
     ignore (Machine.run ~max_cycles:1000 ~analysis:{ Machine.program = p; core = 0 } ());
     Alcotest.fail "expected cycle limit"
   with Machine.Cycle_limit_exceeded _ -> ())

(* --- priorities and traces ------------------------------------------------------ *)

let test_priority_limits_waits () =
  (* With the analysis task alone in the urgent class, no request waits
     longer than one lower-priority service; in the shared class, waits
     can stack one service per contender. *)
  let n = 100 in
  let task = prog "a" [ compute 1; Program.loop n [ load lmu_nc ] ] in
  let hammer core addr =
    { Machine.program = contender_hammer addr 100_000; core }
  in
  let run priorities =
    Machine.run ~priorities ~trace:true
      ~analysis:{ Machine.program = task; core = 0 }
      ~contenders:[ hammer 1 (lmu_nc + 64); hammer 2 (lmu_nc + 128) ]
      ()
  in
  let same = run [| 0; 0; 0 |] in
  let prio = run [| 0; 1; 1 |] in
  let wait_of r = Trace.max_wait (Trace.of_core r.Machine.trace 0) in
  let svc = Latency.lmax lat Target.Lmu Op.Data in
  Alcotest.(check bool)
    (Printf.sprintf "same class can stack two services (%d)" (wait_of same))
    true
    (wait_of same > svc);
  Alcotest.(check bool)
    (Printf.sprintf "prioritised waits at most one service (%d <= %d)"
       (wait_of prio) svc)
    true
    (wait_of prio <= svc);
  Alcotest.(check bool) "priority speeds the task up" true
    (prio.Machine.cycles <= same.Machine.cycles)

let test_priority_validation () =
  (try
     ignore
       (Machine.run ~priorities:[| 0; 1 |]
          ~analysis:{ Machine.program = prog "p" [ compute 1 ]; core = 0 }
          ());
     Alcotest.fail "length mismatch must be rejected"
   with Invalid_argument _ -> ())

let test_trace_records_transactions () =
  let n = 25 in
  let p = prog "t" [ compute 1; Program.loop n [ load lmu_nc ] ] in
  let r =
    Machine.run ~trace:true ~analysis:{ Machine.program = p; core = 0 } ()
  in
  let t = r.Machine.trace in
  Alcotest.(check int) "one event per SRI access" n (Trace.count t);
  Alcotest.(check int) "all on core 0" n (Trace.count (Trace.of_core t 0));
  Alcotest.(check int) "all on lmu" n (Trace.count (Trace.of_target t Target.Lmu));
  Alcotest.(check int) "no waits in isolation" 0 (Trace.max_wait t);
  Alcotest.(check int) "service is the lmu latency"
    (Latency.lmax lat Target.Lmu Op.Data)
    (Trace.max_service t);
  Alcotest.(check bool) "profile reconstruction matches ground truth" true
    (Access_profile.equal (Trace.profile t ~core:0) r.Machine.analysis.Machine.profile)

let test_trace_disabled_is_empty () =
  let p = prog "t" [ compute 1; load lmu_nc ] in
  let r = Machine.run ~analysis:{ Machine.program = p; core = 0 } () in
  Alcotest.(check int) "no events" 0 (Trace.count r.Machine.trace)

let test_trace_csv () =
  let p = prog "t" [ compute 1; load lmu_nc ] in
  let r = Machine.run ~trace:true ~analysis:{ Machine.program = p; core = 0 } () in
  let csv = Trace.to_csv r.Machine.trace in
  Alcotest.(check int) "header + one line" 2
    (List.length (List.filter (fun s -> s <> "") (String.split_on_char '\n' csv)))

let test_trace_waits_bounded_by_corunner_service () =
  (* The per-request assumption behind Eq. 1/Eq. 9: with one same-class
     contender, every analysis request waits at most one contender
     service on its target. *)
  let task =
    prog "a" [ compute 1; Program.loop 60 [ load lmu_nc; load dfl ] ]
  in
  let con =
    prog "b"
      [ Program.loop 5_000 [ Program.I { Program.pc = pspr; kind = Program.Load (lmu_nc + 256) };
                             Program.I { Program.pc = pspr + 4; kind = Program.Load (dfl + 4096) } ] ]
  in
  let r =
    Machine.run ~trace:true
      ~analysis:{ Machine.program = task; core = 0 }
      ~contenders:[ { Machine.program = con; core = 1 } ]
      ()
  in
  let trace = r.Machine.trace in
  let con_events = Trace.of_core trace 1 in
  List.iter
    (fun (e : Trace.event) ->
       if e.Trace.core = 0 then begin
         let cap = Trace.max_service (Trace.of_target con_events e.Trace.target) in
         Alcotest.(check bool)
           (Printf.sprintf "wait %d <= contender service %d on %s" e.Trace.waited
              cap (Target.to_string e.Trace.target))
           true
           (e.Trace.waited <= cap)
       end)
    trace

(* --- ground-truth profile vs counters ------------------------------------------ *)

let test_profile_matches_pcache_miss () =
  (* All SRI code cacheable: PCACHE_MISS = SRI code requests (the Scenario 1
     exactness assumption). *)
  let kinds = List.init 300 (fun _ -> Program.Compute 1) in
  let p =
    prog "codes"
      (Program.seq ~pc_base:pf0_c kinds
       @ Program.seq ~pc_base:pf1_c kinds)
  in
  let r = run p in
  let c = r.Machine.analysis.Machine.counters in
  let profile = r.Machine.analysis.Machine.profile in
  Alcotest.(check int) "PM = SRI code requests" c.Counters.pcache_miss
    (Access_profile.total_op profile Op.Code)

(* --- property tests --------------------------------------------------------------- *)

(* Reference cache model: plain association list per set, LRU order. *)
module Ref_cache = struct
  type t = {
    nsets : int;
    ways : int;
    line : int;
    mutable sets : (int * int list) list; (* set -> tags, MRU first *)
    mutable dirty : (int * int) list; (* (set, tag) of dirty lines *)
  }

  let create nsets ways line = { nsets; ways; line; sets = []; dirty = [] }

  let access c addr ~write =
    let la = addr / c.line in
    let set = la mod c.nsets in
    let tag = la / c.nsets in
    let tags = try List.assoc set c.sets with Not_found -> [] in
    let hit = List.mem tag tags in
    let tags' = tag :: List.filter (fun t -> t <> tag) tags in
    let evicted = if List.length tags' > c.ways then Some (List.nth tags' c.ways) else None in
    let tags' = if List.length tags' > c.ways then List.filteri (fun i _ -> i < c.ways) tags' else tags' in
    c.sets <- (set, tags') :: List.remove_assoc set c.sets;
    let victim_dirty =
      match evicted with
      | Some v when List.mem (set, v) c.dirty -> true
      | _ -> false
    in
    (match evicted with
     | Some v -> c.dirty <- List.filter (fun p -> p <> (set, v)) c.dirty
     | None -> ());
    if write then
      if not (List.mem (set, tag) c.dirty) then c.dirty <- (set, tag) :: c.dirty;
    (hit, victim_dirty)
end

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache agrees with a reference LRU model" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 200)
       (QCheck.pair (QCheck.int_range 0 1023) QCheck.bool))
    (fun accesses ->
       (* 8 sets x 2 ways x 32B lines over a 32KB address space *)
       let c = Cache.create { Cache.size_bytes = 512; ways = 2; line_bytes = 32 } in
       let r = Ref_cache.create 8 2 32 in
       List.for_all
         (fun (slot, write) ->
            let addr = slot * 32 in
            let got = Cache.access c ~addr ~write in
            let hit, victim_dirty = Ref_cache.access r addr ~write in
            match got with
            | Cache.Hit -> hit
            | Cache.Miss { victim } ->
              (not hit) && victim_dirty = (victim <> None))
         accesses)

let gen_items =
  (* random nested programs *)
  let open QCheck.Gen in
  let leaf = map (fun n -> Program.I { Program.pc = pspr; kind = Program.Compute (1 + n) }) (int_range 0 3) in
  fix
    (fun self depth ->
       if depth = 0 then map (fun i -> [ i ]) leaf
       else
         frequency
           [
             (3, map (fun i -> [ i ]) leaf);
             (1,
              map2
                (fun count body -> [ Program.loop count (List.concat body) ])
                (int_range 0 4)
                (list_size (int_range 1 3) (self (depth - 1))));
             (2, map2 (fun a b -> a @ b) (self (depth - 1)) (self (depth - 1)));
           ])
    3

let prop_walker_visits_dynamic_length =
  QCheck.Test.make ~name:"walker emits exactly dynamic_length instructions"
    ~count:300 (QCheck.make gen_items) (fun items ->
        let p = Program.make ~name:"rand" items in
        let w = Program.Walker.create p in
        let n = ref 0 in
        while Program.Walker.next w <> None do incr n done;
        !n = Program.dynamic_length p
        &&
        ((* reset replays identically *)
          Program.Walker.reset w;
          let m = ref 0 in
          while Program.Walker.next w <> None do incr m done;
          !m = !n))

let prop_simulation_deterministic =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:30
    (QCheck.make gen_items) (fun items ->
        let body =
          items
          @ [ Program.I { Program.pc = pspr + 0x100; kind = Program.Load lmu_nc } ]
        in
        let p = Program.make ~name:"det" body in
        let r1 = Machine.run_isolation p and r2 = Machine.run_isolation p in
        r1.Machine.cycles = r2.Machine.cycles
        && Platform.Counters.equal r1.Machine.analysis.Machine.counters
             r2.Machine.analysis.Machine.counters)

(* --- kernel differential suite ------------------------------------------------ *)

(* Random programs that actually exercise the SRI — loads and stores
   across every admissible target (cacheable and not), fetches from both
   flash banks and the scratchpad, nested loops — co-run against random
   contender mixes under random priority maps. The oracle is the
   cycle-stepped reference model in [Ref_sim]: both kernels must
   reproduce its [run_result] bit for bit (cycles, all six counters,
   access profiles, traces, restart counts). *)
let gen_kernel_diff =
  let open QCheck.Gen in
  let data_addr =
    oneof
      [
        return dspr;
        map (fun k -> lmu_nc + (4 * k)) (int_range 0 63);
        map (fun k -> lmu_c + (32 * k)) (int_range 0 63);
        map (fun k -> dfl + (32 * k)) (int_range 0 15);
        map (fun k -> pf0_c + (32 * k)) (int_range 0 31);
      ]
  in
  let store_addr =
    (* program flash is not writable; everything else is fair game *)
    oneof
      [
        return dspr;
        map (fun k -> lmu_nc + (4 * k)) (int_range 0 63);
        map (fun k -> lmu_c + (32 * k)) (int_range 0 63);
        map (fun k -> dfl + (32 * k)) (int_range 0 15);
      ]
  in
  let pc =
    oneof
      [
        return pspr;
        map (fun k -> pf0_c + (4 * k)) (int_range 0 127);
        map (fun k -> pf1_c + (4 * k)) (int_range 0 127);
      ]
  in
  let instr =
    frequency
      [
        ( 3,
          map2
            (fun pc n -> Program.I { Program.pc; kind = Program.Compute (1 + n) })
            pc (int_range 0 3) );
        (3, map2 (fun pc a -> Program.I { Program.pc; kind = Program.Load a }) pc data_addr);
        (2, map2 (fun pc a -> Program.I { Program.pc; kind = Program.Store a }) pc store_addr);
      ]
  in
  let items =
    fix
      (fun self depth ->
         if depth = 0 then map (fun i -> [ i ]) instr
         else
           frequency
             [
               (3, map (fun i -> [ i ]) instr);
               ( 1,
                 map2
                   (fun count body -> [ Program.loop count (List.concat body) ])
                   (int_range 0 3)
                   (list_size (int_range 1 3) (self (depth - 1))) );
               (2, map2 (fun a b -> a @ b) (self (depth - 1)) (self (depth - 1)));
             ])
      2
  in
  let task core =
    map
      (fun its ->
         { Machine.program = Program.make ~name:(Printf.sprintf "t%d" core) its; core })
      items
  in
  let contenders =
    oneof
      [
        return [];
        map (fun t -> [ t ]) (task 1);
        map2 (fun a b -> [ a; b ]) (task 1) (task 2);
      ]
  in
  let priorities =
    oneof
      [
        return None;
        map (fun l -> Some (Array.of_list l)) (list_repeat 3 (int_range 0 1));
      ]
  in
  map
    (fun ((analysis, contenders), (priorities, restart)) ->
       (analysis, contenders, priorities, restart))
    (pair (pair (task 0) contenders) (pair priorities bool))

(* Outcome of a run under an explicit budget: a strict-priority map can
   legitimately starve the analysis task, and then both models must
   raise at the same cycle. *)
let outcome f = match f () with r -> Ok r | exception Machine.Cycle_limit_exceeded c -> Error c

let kernel_budget = 1_000_000

let prop_kernels_agree =
  QCheck.Test.make ~name:"event kernel reproduces the stepped oracle bit-for-bit"
    ~count:120 (QCheck.make gen_kernel_diff)
    (fun (analysis, contenders, priorities, restart) ->
       let go kernel () =
         Machine.run ~kernel ~max_cycles:kernel_budget ?priorities
           ~restart_contenders:restart ~trace:true ~analysis ~contenders ()
       in
       let reference =
         outcome (fun () ->
             Ref_sim.run ~max_cycles:kernel_budget ?priorities
               ~restart_contenders:restart ~trace:true ~analysis ~contenders ())
       in
       outcome (go `Event) = reference && outcome (go `Stepped) = reference)

let prop_kernels_agree_on_cycle_limit =
  QCheck.Test.make ~name:"kernels agree on the cycle-limit boundary"
    ~count:60
    (QCheck.pair (QCheck.make gen_kernel_diff) (QCheck.int_range 0 400))
    (fun ((analysis, contenders, priorities, restart), max_cycles) ->
       let summary f =
         Result.map
           (fun r -> (r.Machine.cycles, r.Machine.analysis, r.Machine.contenders))
           (outcome f)
       in
       let kernel kernel () =
         Machine.run ~kernel ~max_cycles ?priorities ~restart_contenders:restart
           ~analysis ~contenders ()
       in
       let reference =
         summary (fun () ->
             Ref_sim.run ~max_cycles ?priorities ~restart_contenders:restart
               ~analysis ~contenders ())
       in
       summary (kernel `Event) = reference && summary (kernel `Stepped) = reference)

(* Two class-0 co-runners hammering the LMU keep it busy for ever: each
   re-issues one cycle after its transaction completes, while the other
   is already queued, so strict priority never lets the class-1 analysis
   task through. *)
let test_strict_priority_starvation () =
  let max_cycles = 100_000 and priorities = [| 1; 0; 0 |] in
  let analysis = { Machine.program = prog "victim" [ compute 3; load lmu_nc ]; core = 0 } in
  let contenders =
    List.map
      (fun core ->
         { Machine.program = prog "hammer" [ Program.loop 1000 [ load lmu_nc ] ]; core })
      [ 1; 2 ]
  in
  let show f =
    match outcome f with
    | Ok _ -> "finished"
    | Error c -> Printf.sprintf "limit at %d" c
  in
  let kernel kernel () =
    Machine.run ~kernel ~max_cycles ~priorities ~analysis ~contenders ()
  in
  let expected = Printf.sprintf "limit at %d" (max_cycles + 1) in
  Alcotest.(check string) "reference starves" expected
    (show (fun () -> Ref_sim.run ~max_cycles ~priorities ~analysis ~contenders ()));
  Alcotest.(check string) "event kernel starves" expected (show (kernel `Event));
  Alcotest.(check string) "stepped kernel starves" expected (show (kernel `Stepped))

(* Shapes the random generator reaches only by chance: empty and silent
   passes (a restarting co-runner then ends a pass every few cycles for
   ever), passes that fall silent once the caches are warm, and programs
   that raise — early, late (after the analysis task has finished), or
   by fetching from the data flash. *)
let test_edge_cases_match_reference () =
  let task core items = { Machine.program = prog (Printf.sprintf "c%d" core) items; core } in
  let app = task 0 [ compute 2; load lmu_nc; Program.loop 40 [ load dfl; compute 3 ] ] in
  let show f =
    match f () with
    | r -> Format.asprintf "%d %a" r.Machine.cycles Counters.pp r.Machine.analysis.Machine.counters
           ^ String.concat ""
               (List.map
                  (fun (id, c) ->
                     Format.asprintf " | %d: %a r=%d" id Counters.pp c.Machine.counters c.Machine.restarts)
                  r.Machine.contenders)
    | exception Machine.Cycle_limit_exceeded c -> Printf.sprintf "limit %d" c
    | exception Invalid_argument m -> "invalid: " ^ m
  in
  let check name ?(analysis = app) contenders =
    List.iter
      (fun restart ->
         let label = Printf.sprintf "%s (restart %b)" name restart in
         let run kernel () =
           Machine.run ~kernel ~max_cycles:20_000 ~restart_contenders:restart ~trace:true
             ~analysis ~contenders ()
         in
         let reference () =
           Ref_sim.run ~max_cycles:20_000 ~restart_contenders:restart ~trace:true ~analysis
             ~contenders ()
         in
         Alcotest.(check string) (label ^ ", event") (show reference) (show (run `Event));
         Alcotest.(check string) (label ^ ", stepped") (show reference) (show (run `Stepped));
         match (reference (), run `Event ()) with
         | r, e -> Alcotest.(check bool) (label ^ ", full result") true (r = e)
         | exception (Machine.Cycle_limit_exceeded _ | Invalid_argument _) -> ())
      [ true; false ]
  in
  check "empty co-runner" [ task 1 [ Program.loop 0 [ load lmu_nc ] ] ];
  check "scratchpad co-runner" [ task 1 [ compute 3; load dspr ] ];
  check "co-runner silent once warm" [ task 1 [ Program.loop 4 [ load lmu_c; compute 2 ] ] ];
  check "empty analysis task" ~analysis:(task 0 []) [ task 1 [ load lmu_nc ] ];
  check "late failure" [ task 1 [ Program.loop 5000 [ compute 9 ]; store pf0_c ] ];
  check "early failure" [ task 1 [ load lmu_nc; store pf0_c ] ];
  check "data-flash fetch" [ task 1 [ compute ~pc:dfl 1 ] ];
  check "unmapped address" [ task 1 [ load lmu_nc; load 0x1234 ] ]

(* --- the script memo ------------------------------------------------------ *)

let memo_hits = Obs.Metrics.counter ~timing:true "tcsim.script_memo.hits"
let memo_segments () =
  Obs.Metrics.gauge_value (Obs.Metrics.gauge ~timing:true "tcsim.script_memo.segments")

(* Every run checks its scripts out of the process-wide memo, so
   sequential solo runs of related mixes read scripts earlier runs
   compiled; each must nevertheless reproduce the reference model's
   [run_result] bit for bit — cycles, counters, ground-truth profiles,
   restart counts and traces. *)
let prop_memo_runs_match_reference =
  QCheck.Test.make
    ~name:"sequential solo runs sharing memo scripts reproduce Ref_sim bit for bit"
    ~count:60 (QCheck.make gen_kernel_diff)
    (fun (analysis, contenders, priorities, restart) ->
       (* the full mix (traced), the analysis alone, and — when there are
          contenders — the analysis against the first one: every later
          run reads the analysis program's script, some read contender
          scripts, and one exercises the traced path *)
       let mixes =
         (true, contenders)
         :: (false, [])
         :: (match contenders with [] -> [] | c :: _ -> [ (false, [ c ]) ])
       in
       let reference =
         List.map
           (fun (trace, contenders) ->
              outcome (fun () ->
                  Ref_sim.run ~max_cycles:kernel_budget ~restart_contenders:restart
                    ?priorities ~trace ~analysis ~contenders ()))
           mixes
       in
       Machine.clear_scripts ();
       let hits0 = Obs.Metrics.value memo_hits in
       let runs =
         List.map
           (fun (trace, contenders) ->
              outcome (fun () ->
                  Machine.run ~max_cycles:kernel_budget ~restart_contenders:restart
                    ?priorities ~trace ~analysis ~contenders ()))
           mixes
       in
       runs = reference && Obs.Metrics.value memo_hits - hits0 >= List.length mixes - 1)

let prop_memo_cycle_limit_matches_reference =
  QCheck.Test.make ~name:"scripts a raising run returned reproduce Ref_sim"
    ~count:40
    (QCheck.pair (QCheck.make gen_kernel_diff) (QCheck.int_range 0 400))
    (fun ((analysis, contenders, priorities, restart), max_cycles) ->
       (* the same run twice under a tight budget — the second reads the
          scripts the first returned, including on the raising path —
          then under the full budget, which compiles them on past where
          the raising runs stopped *)
       let budgets = [ max_cycles; max_cycles; kernel_budget ] in
       let reference =
         List.map
           (fun max_cycles ->
              outcome (fun () ->
                  Ref_sim.run ~max_cycles ~restart_contenders:restart ?priorities
                    ~analysis ~contenders ()))
           budgets
       in
       Machine.clear_scripts ();
       List.map
         (fun max_cycles ->
            outcome (fun () ->
                Machine.run ~max_cycles ~restart_contenders:restart ?priorities
                  ~analysis ~contenders ()))
         budgets
       = reference)

(* The metrics a run records in the deterministic snapshot — per-target
   SRI totals and the run/cycle counters — match the reference, also
   when the run raises (the kernel flushes its totals in a finaliser). *)
let prop_metrics_match_reference =
  QCheck.Test.make ~name:"deterministic metrics match the reference, raising or not"
    ~count:60
    (QCheck.pair (QCheck.make gen_kernel_diff) (QCheck.int_range 0 2000))
    (fun ((analysis, contenders, priorities, restart), max_cycles) ->
       let snap f =
         Obs.Metrics.reset ();
         ignore (outcome f);
         List.filter
           (fun (k, _) ->
              String.starts_with ~prefix:"sri." k || k = "tcsim.cycles" || k = "tcsim.runs")
           (Obs.Metrics.deterministic_snapshot ())
       in
       let kernel kernel () =
         Machine.run ~kernel ~max_cycles ?priorities ~restart_contenders:restart
           ~analysis ~contenders ()
       in
       let reference =
         snap (fun () ->
             Ref_sim.run ~max_cycles ?priorities ~restart_contenders:restart
               ~analysis ~contenders ())
       in
       snap (kernel `Event) = reference && snap (kernel `Stepped) = reference)

let figure4_cells () =
  List.concat_map
    (fun scenario ->
       let variant = Workload.Control_loop.variant_of_scenario scenario in
       let app = Workload.Control_loop.app variant in
       List.map
         (fun level -> (scenario, level, app, Workload.Load_gen.make ~variant ~level ()))
         Workload.Load_gen.all_levels)
    [ Scenario.scenario1; Scenario.scenario2 ]

let test_kernels_agree_on_workloads () =
  (* the paper's real workload shapes: warm caches, folded write-backs,
     streaming fetches and restarting contenders *)
  List.iter
    (fun (scenario, level, app, con) ->
       if level = Workload.Load_gen.High then begin
         let analysis = { Machine.program = app; core = 0 }
         and contenders = [ { Machine.program = con; core = 1 } ] in
         let r = Ref_sim.run ~trace:true ~analysis ~contenders () in
         let e = Machine.run ~kernel:`Event ~trace:true ~analysis ~contenders () in
         Alcotest.(check int) (scenario.Scenario.name ^ " cycles") r.Machine.cycles e.Machine.cycles;
         Alcotest.(check bool) (scenario.Scenario.name ^ " full result identical") true (r = e)
       end)
    (figure4_cells ())

(* --- what an event is ------------------------------------------------------ *)

let events_of f =
  let m = Obs.Metrics.counter "tcsim.events" in
  let before = Obs.Metrics.value m in
  let r = f () in
  (r, Obs.Metrics.value m - before)

let test_silent_program_costs_one_event () =
  (* 100k scratchpad-only instructions never touch the SRI: the kernel
     wakes once, when the program ends *)
  let body = [ compute 1; load dspr; store (dspr + 4); compute 2 ] in
  let p = prog "silent" [ Program.loop 25_000 body ] in
  let r, events = events_of (fun () -> Machine.run_isolation ~kernel:`Event p) in
  Alcotest.(check int) "cycles" 125_000 r.Machine.cycles;
  Alcotest.(check int) "one event" 1 events

let test_events_are_issues_and_grants () =
  (* on every Figure 4 cell — both isolation runs and the co-run — the
     kernel wakes exactly at the cycles where a request issues or a
     queued request is granted, plus the analysis task's end *)
  List.iter
    (fun (scenario, level, app, con) ->
       List.iter
         (fun (what, analysis, contenders) ->
            let pending = ref [] in
            let reference =
              Ref_sim.run ~restart_contenders:false ~trace:true ~pending ~analysis ~contenders ()
            in
            let r, events =
              events_of (fun () ->
                  Machine.run ~kernel:`Event ~restart_contenders:false ~trace:true ~analysis
                    ~contenders ())
            in
            let cycles =
              List.sort_uniq compare
                ((r.Machine.cycles :: !pending)
                 @ List.concat_map
                     (fun e -> [ e.Trace.issue_cycle; e.Trace.grant_cycle ])
                     reference.Machine.trace)
            in
            Alcotest.(check int)
              (Printf.sprintf "%s/%s %s" scenario.Scenario.name
                 (Workload.Load_gen.level_to_string level) what)
              (List.length cycles) events)
         [
           ("app", { Machine.program = app; core = 0 }, []);
           ("contender", { Machine.program = con; core = 1 }, []);
           ("co-run", { Machine.program = app; core = 0 }, [ { Machine.program = con; core = 1 } ]);
         ])
    (figure4_cells ())

(* The per-event path allocates nothing: a second co-run of Figure 4's
   Scenario 2 H-Load cell, its scripts warm in the memo, allocates only
   the run's fixed set-up and results, far below one word per event. *)
let test_warm_corun_allocation () =
  let variant = Workload.Control_loop.variant_of_scenario Scenario.scenario2 in
  let analysis = { Machine.program = Workload.Control_loop.app variant; core = 0 }
  and contenders =
    [ { Machine.program = Workload.Load_gen.make ~variant ~level:Workload.Load_gen.High ();
        core = 1 } ]
  in
  let corun () =
    Machine.run ~kernel:`Event ~restart_contenders:false ~analysis ~contenders ()
  in
  ignore (corun ());
  let before = Gc.minor_words () in
  let _, events = events_of corun in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%d events" events) true (events > 100_000);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d events (under 2,000)" words events)
    true (words < 2000.)

(* --- loop replay -------------------------------------------------------------- *)

(* Programs whose loop bodies outrun the caches, so that the script
   compiler snapshots their iterations and replays them once the state
   settles: fetches from more cached pf0/pf1 lines than the I$ holds, in
   shuffled order; cacheable LMU loads and stores over more lines than
   the D$ holds (dirty write-backs, folded fills) and cacheable flash
   constants (write-backs ahead of a flash fill); uncached LMU and
   data-flash traffic; small nested inner loops; and now and then an
   instruction that raises, inside the loop or after it. *)
let raising_instr = { Program.pc = pspr; kind = Program.Store pf0_c }

let gen_replay_kind =
  let open QCheck.Gen in
  let load_addr =
    frequency
      [
        (5, map (fun k -> lmu_c + (32 * k)) (int_range 0 383) (* the D$ holds 256 *));
        (1, map (fun k -> pf0_c + 0x8000 + (32 * k)) (int_range 0 63));
        (1, map (fun k -> lmu_nc + (4 * k)) (int_range 0 63));
        (1, map (fun k -> dfl + (32 * k)) (int_range 0 15));
      ]
  in
  let store_addr =
    frequency
      [
        (5, map (fun k -> lmu_c + (32 * k)) (int_range 0 383));
        (1, map (fun k -> lmu_nc + (4 * k)) (int_range 0 63));
        (1, map (fun k -> dfl + (32 * k)) (int_range 0 15));
      ]
  in
  frequency
    [
      (3, map (fun n -> Program.Compute (1 + n)) (int_range 0 3));
      (3, map (fun a -> Program.Load a) load_addr);
      (2, map (fun a -> Program.Store a) store_addr);
    ]

(* one to three scratchpad instructions *)
let gen_small =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (map (fun kind -> Program.I { Program.pc = pspr; kind }) gen_replay_kind))

(* A loop body of [size] instructions and small inner loops *)
let gen_loop_body size =
  let open QCheck.Gen in
  let code_lines = 640 (* the P16 I$ holds 512 *) in
  let kind = gen_replay_kind and small = gen_small in
  let pc_of line =
    if line < code_lines / 2 then pf0_c + (32 * line)
    else pf1_c + (32 * (line - (code_lines / 2)))
  in
  shuffle_l (List.init code_lines Fun.id) >>= fun lines ->
  size >>= fun n ->
  let lines = Array.of_list lines in
  list_repeat n
    (frequency
       [
         (1, map (fun kind -> `Local kind) kind);
         (6, map (fun kind -> `Flash kind) kind);
         (1, map2 (fun count body -> `Inner (Program.loop count body)) (int_range 1 3) small);
       ])
  >>= fun slots ->
  (* flash-fetched instructions take the shuffled lines in turn *)
  let next = ref 0 in
  return
    (List.map
       (function
         | `Local kind -> Program.I { Program.pc = pspr; kind }
         | `Flash kind ->
           let pc = pc_of lines.(!next mod code_lines) in
           incr next;
           Program.I { Program.pc; kind }
         | `Inner item -> item)
       slots)

(* 800 to 1000 instructions: longer than the P16's caches have lines *)
let gen_replay_body = gen_loop_body (QCheck.Gen.int_range 800 1000)

let gen_replay_program =
  let open QCheck.Gen in
  let raising = Program.I raising_instr and small = gen_small in
  gen_replay_body >>= fun body ->
  int_range 3 6 >>= fun count ->
  small >>= fun prefix ->
  small >>= fun suffix ->
  frequency [ (6, return `None); (1, return `Inside); (1, return `After) ] >|= fun raise_at ->
  let body =
    match raise_at with
    | `Inside -> body @ [ raising ]
    | `None | `After -> body
  in
  prefix @ [ Program.loop count body ] @ suffix
  @ match raise_at with `After -> [ raising ] | `None | `Inside -> []

(* The analysis task on a P16 (core 0) or the E16 (core 2), up to two
   contenders on the other cores, restarting or not, random priority
   classes. *)
let gen_replay_case =
  let open QCheck.Gen in
  let task core =
    map
      (fun its -> { Machine.program = prog (Printf.sprintf "r%d" core) its; core })
      gen_replay_program
  in
  oneofl [ (0, [ 1; 2 ]); (2, [ 0; 1 ]) ] >>= fun (a, others) ->
  task a >>= fun analysis ->
  int_range 0 2 >>= fun k ->
  flatten_l (List.map task (List.filteri (fun i _ -> i < k) others)) >>= fun contenders ->
  oneof [ return None; map (fun l -> Some (Array.of_list l)) (list_repeat 3 (int_range 0 1)) ]
  >>= fun priorities ->
  bool >|= fun restart -> (analysis, contenders, priorities, restart)

let replay_budget = 400_000

(* [outcome], raising instructions included *)
let verdict f =
  match f () with
  | r -> Ok r
  | exception Machine.Cycle_limit_exceeded c -> Error (Printf.sprintf "limit %d" c)
  | exception Invalid_argument m -> Error m

let prop_replay_matches_reference =
  QCheck.Test.make ~name:"replayed loop scripts reproduce Ref_sim bit for bit" ~count:40
    (QCheck.make gen_replay_case)
    (fun (analysis, contenders, priorities, restart) ->
       let reference =
         verdict (fun () ->
             Ref_sim.run ~max_cycles:replay_budget ?priorities ~restart_contenders:restart
               ~trace:true ~analysis ~contenders ())
       in
       let go kernel () =
         Machine.clear_scripts ();
         Machine.run ~kernel ~max_cycles:replay_budget ?priorities
           ~restart_contenders:restart ~trace:true ~analysis ~contenders ()
       in
       verdict (go `Event) = reference && verdict (go `Stepped) = reference)

let replayed = Obs.Metrics.counter ~timing:true "tcsim.script.replayed_segments"

let replayed_by f =
  Machine.clear_scripts ();
  let before = Obs.Metrics.value replayed in
  let r = f () in
  (r, Obs.Metrics.value replayed - before)

(* Guards the property above against passing vacuously: on the
   programs it generates, loop replay does fire. *)
let test_replay_fires () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:12 gen_replay_program
  in
  let fired =
    List.filter
      (fun items ->
         let _, n =
           replayed_by (fun () -> verdict (fun () -> Machine.run_isolation (prog "r" items)))
         in
         n > 0)
      programs
  in
  Alcotest.(check bool)
    (Printf.sprintf "replay fired on %d of %d programs" (List.length fired)
       (List.length programs))
    true
    (2 * List.length fired >= List.length programs);
  Alcotest.(check bool) "the counter is timing-tier" false
    (List.mem_assoc "tcsim.script.replayed_segments" (Obs.Metrics.deterministic_snapshot ()))

(* The scale target: Table 6's application at ten times its iterations
   compiles no more segments than at one time; the extra periods are
   all replayed, and the script stores no more segments either. *)
let test_replay_scale () =
  List.iter
    (fun variant ->
       let compiled iterations =
         let p =
           Workload.Control_loop.build variant
             { Workload.Control_loop.default_params with iterations }
         in
         let r, n =
           replayed_by (fun () ->
               Machine.run ~trace:true ~analysis:{ Machine.program = p; core = 0 } ())
         in
         (* one segment per transaction, plus the pass end; the memo
            holds the one script the run returned *)
         (List.length r.Machine.trace + 1 - n, n, memo_segments ())
       in
       let base = Workload.Control_loop.default_params.Workload.Control_loop.iterations in
       let c1, r1, s1 = compiled base and c10, r10, s10 = compiled (10 * base) in
       let name = match variant with Workload.Control_loop.S1 -> "S1" | S2 -> "S2" in
       Alcotest.(check bool) (name ^ ": replay fires at 1x") true (r1 > 0);
       Alcotest.(check bool) (name ^ ": and replays more at 10x") true (r10 > r1);
       Alcotest.(check int) (name ^ ": non-replayed segments, 10x = 1x") c1 c10;
       Alcotest.(check bool) (name ^ ": the script is retained") true (s1 > 0);
       Alcotest.(check int) (name ^ ": stored segment slots, 10x = 1x") s1 s10)
    [ Workload.Control_loop.S1; Workload.Control_loop.S2 ]

(* Two cores running one program on one core config read one script
   from two positions: the contender restarts over the analysis core's
   replayed regions, which it reaches at other times, or the two cores
   run it once side by side. *)
let test_replay_shared_script () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n:4 gen_replay_program
  in
  List.iteri
    (fun k items ->
       let p = prog "shared" items in
       let analysis = { Machine.program = p; core = 0 }
       and contenders = [ { Machine.program = p; core = 1 } ] in
       List.iter
         (fun restart ->
            let reference =
              verdict (fun () ->
                  Ref_sim.run ~max_cycles:replay_budget ~restart_contenders:restart ~trace:true
                    ~analysis ~contenders ())
            in
            List.iter
              (fun (kernel, trace) ->
                 let expected =
                   if trace then reference
                   else Result.map (fun r -> { r with Machine.trace = [] }) reference
                 in
                 Machine.clear_scripts ();
                 let go () =
                   verdict (fun () ->
                       Machine.run ~kernel ~max_cycles:replay_budget ~restart_contenders:restart
                         ~trace ~analysis ~contenders ())
                 in
                 let cold = go () in
                 let warm = go () in
                 Alcotest.(check bool)
                   (Printf.sprintf "program %d, restart %b, %s%s: cold and warm scripts" k restart
                      (Machine.kernel_to_string kernel)
                      (if trace then ", traced" else ""))
                   true
                   (cold = expected && warm = expected))
              [ (`Event, true); (`Event, false); (`Stepped, true) ])
         [ true; false ])
    programs

(* --- nested replay -------------------------------------------------------- *)

(* An outer loop whose iterations run a replayed inner loop between a
   few instructions of their own: once both settle, the outer region's
   first period holds an inner region, so a read in the outer region
   maps its index through both. *)
let gen_nested_program =
  let open QCheck.Gen in
  gen_replay_body >>= fun body ->
  int_range 3 4 >>= fun inner ->
  int_range 3 4 >>= fun outer ->
  gen_small >>= fun before ->
  gen_small >>= fun after ->
  gen_small >|= fun prefix ->
  prefix @ [ Program.loop outer (before @ [ Program.loop inner body ] @ after) ]

(* The nested program on a P16 (core 0) or the E16 (core 2), alone or
   beside a contender that runs one replay loop body once. *)
let gen_nested_case =
  let open QCheck.Gen in
  oneofl [ (0, 1); (2, 0) ] >>= fun (a, other) ->
  gen_nested_program >>= fun items ->
  opt gen_replay_body >|= fun contender ->
  ( { Machine.program = prog "nested" items; core = a },
    match contender with
    | None -> []
    | Some body -> [ { Machine.program = prog "once" body; core = other } ] )

let nested_budget = 1_000_000

(* Nested regions reproduce the reference: traced on the event kernel
   (which then never skips) and the stepped one, untraced on the event
   kernel, which skips whole periods of the outer region. Untraced runs
   read a cold script, then the warm one with every region known. *)
let prop_nested_replay_matches_reference =
  QCheck.Test.make ~name:"nested replayed regions reproduce Ref_sim, skipping or not"
    ~count:15 (QCheck.make gen_nested_case)
    (fun (analysis, contenders) ->
       let reference =
         verdict (fun () ->
             Ref_sim.run ~max_cycles:nested_budget ~restart_contenders:false ~trace:true
               ~analysis ~contenders ())
       in
       let go ?(clear = true) ~trace kernel =
         if clear then Machine.clear_scripts ();
         verdict (fun () ->
             Machine.run ~kernel ~max_cycles:nested_budget ~restart_contenders:false ~trace
               ~analysis ~contenders ())
       in
       let untraced = Result.map (fun r -> { r with Machine.trace = [] }) reference in
       go ~trace:true `Event = reference
       && go ~trace:true `Stepped = reference
       && go ~trace:false `Event = untraced
       && go ~clear:false ~trace:false `Event = untraced)

(* The script of [items] on [core] (default 0), compiled as far as its
   isolation reads it. *)
let isolation_script ?(core = 0) items =
  let script =
    Core_model.Script.create Machine.default_config.Machine.cores.(core) (prog "s" items)
  in
  let sri = Core_model.create_sri ~latency:lat ~priorities:None ~trace:false ~ncores:3 in
  let core = Core_model.create script ~sri ~core_id:core Core_model.Analysis in
  (try
     Core_model.run_kernel ~stepped:false ~skip:true ~max_cycles:nested_budget ~sri
       ~analysis:core ~contenders:[||] ~work:[| 0; 0 |]
   with Core_model.Cycle_limit_exceeded _ | Invalid_argument _ -> ());
  script

(* Guards the property above against passing vacuously: on most of the
   programs it generates, a region lies inside an outer region's first
   period. *)
let test_nested_replay_fires () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:12 gen_nested_program
  in
  let nested items =
    let regions = Core_model.Script.regions (isolation_script items) in
    (* an inner region's replayed part inside an outer one's first period *)
    List.exists
      (fun (f, p, _) -> List.exists (fun (f', p', s') -> f <= f' + p' && s' <= f + p) regions)
      regions
  in
  let fired = List.filter nested programs in
  Alcotest.(check bool)
    (Printf.sprintf "nested regions on %d of %d programs" (List.length fired)
       (List.length programs))
    true
    (2 * List.length fired >= List.length programs)

(* --- short-iteration replay --------------------------------------------------- *)

(* Loops whose iterations are shorter than the caches have lines replay
   in periods of k = ⌈lines / iteration length⌉ iterations, and the
   fewer than k iterations left over compile as usual. The loop body
   runs 50 to 760 instructions (the P16's caches have 768 lines, the
   E16's 256), its count is 3 to 5 whole periods plus a part of one
   (never a multiple of k when k > 1), and it sits inside an outer
   loop between a few instructions of the outer body. *)
let short_program ~outer (prefix, before, count, body, after) =
  prefix @ [ Program.loop outer (before @ [ Program.loop count body ] @ after) ]

let gen_short_case =
  let open QCheck.Gen in
  oneofl [ (0, 1); (2, 0) ] >>= fun (a, other) ->
  gen_loop_body (int_range 50 760) >>= fun body ->
  let lines =
    match Machine.default_config.Machine.cores.(a).Core_model.kind with
    | Core_model.P16 -> 768
    | Core_model.E16 -> 256
  in
  let len = Program.dynamic_length (prog "body" body) in
  let k = (lines + len - 1) / len in
  int_range 3 5 >>= fun periods ->
  int_range (min 1 (k - 1)) (k - 1) >>= fun part ->
  gen_small >>= fun prefix ->
  gen_small >>= fun before ->
  gen_small >>= fun after ->
  int_range 2 3 >>= fun outer ->
  opt (gen_loop_body (int_range 50 200)) >|= fun contender ->
  let parts = (prefix, before, (periods * k) + part, body, after) in
  ( a,
    parts,
    { Machine.program = prog "short" (short_program ~outer parts); core = a },
    match contender with
    | None -> []
    | Some body -> [ { Machine.program = prog "once" body; core = other } ] )

(* Traced on both kernels, untraced on the event kernel from a cold
   script and then from the warm one. *)
let prop_short_replay_matches_reference =
  QCheck.Test.make ~name:"short-iteration loops reproduce Ref_sim, skipping or not"
    ~count:20 (QCheck.make gen_short_case)
    (fun (_, _, analysis, contenders) ->
       let reference =
         verdict (fun () ->
             Ref_sim.run ~max_cycles:nested_budget ~restart_contenders:false ~trace:true
               ~analysis ~contenders ())
       in
       let go ?(clear = true) ~trace kernel =
         if clear then Machine.clear_scripts ();
         verdict (fun () ->
             Machine.run ~kernel ~max_cycles:nested_budget ~restart_contenders:false ~trace
               ~analysis ~contenders ())
       in
       let untraced = Result.map (fun r -> { r with Machine.trace = [] }) reference in
       go ~trace:true `Event = reference
       && go ~trace:true `Stepped = reference
       && go ~trace:false `Event = untraced
       && go ~clear:false ~trace:false `Event = untraced)

(* Guards the property above against passing vacuously: with one outer
   iteration, which has no boundary, any region is the short loop's. *)
let test_short_replay_fires () =
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:12 gen_short_case in
  let fired =
    List.filter
      (fun (core, parts, _, _) ->
         Core_model.Script.regions (isolation_script ~core (short_program ~outer:1 parts)) <> [])
      cases
  in
  Alcotest.(check bool)
    (Printf.sprintf "short loops replayed in %d of %d programs" (List.length fired)
       (List.length cases))
    true
    (2 * List.length fired >= List.length cases)

(* The scale pin: a contender whose loop body runs 747 instructions,
   fewer than the P16's caches have lines (random-coruns' ×8.147 L-Load
   cell), stores no more segments at 362 iterations than at 36; and the
   bundled L-Load contenders, with 756- and 708-instruction bodies,
   replay too. *)
let test_short_replay_scale () =
  let contender iterations =
    let variant = Workload.Control_loop.S1 in
    Workload.Control_loop.build variant
      {
        (Workload.Load_gen.params ~variant ~level:Workload.Load_gen.Low ~region_slot:1) with
        Workload.Control_loop.table_walk = 151;
        iterations;
      }
  in
  let body p =
    match Program.items p with [ Program.Loop { body; _ } ] -> List.length body | _ -> 0
  in
  Alcotest.(check int) "a 747-instruction body" 747 (body (contender 36));
  let stored iterations =
    let s = isolation_script ~core:1 (Program.items (contender iterations)) in
    Alcotest.(check bool)
      (Printf.sprintf "%d iterations: a replay region" iterations)
      true
      (Core_model.Script.regions s <> []);
    Core_model.Script.footprint s
  in
  let s36 = stored 36 and s362 = stored 362 in
  Alcotest.(check bool)
    (Printf.sprintf "stored segment slots at 362 iterations (%d) <= at 36 (%d)" s362 s36)
    true (s362 <= s36);
  List.iter
    (fun (name, variant, len) ->
       let p = Workload.Load_gen.make ~variant ~level:Workload.Load_gen.Low () in
       Alcotest.(check int) (name ^ " L-Load body") len (body p);
       Alcotest.(check bool) (name ^ " L-Load has a replay region") true
         (Core_model.Script.regions (isolation_script ~core:1 (Program.items p)) <> []))
    [ ("S1", Workload.Control_loop.S1, 756); ("S2", Workload.Control_loop.S2, 708) ]

(* --- skipping periods alone ------------------------------------------------- *)

let solo_skipped = Obs.Metrics.counter ~timing:true "tcsim.solo.skipped_events"

let skipped_by f =
  let before = Obs.Metrics.value solo_skipped in
  let r = f () in
  (r, Obs.Metrics.value solo_skipped - before)

(* What the kernel must wake for, in a reference run that completed:
   issues and grants, requests still queued at the finish, the finish. *)
let reference_event_cycles ~pending (r : Machine.run_result) =
  List.sort_uniq compare
    ((r.Machine.cycles :: pending)
     @ List.concat_map (fun e -> [ e.Trace.issue_cycle; e.Trace.grant_cycle ]) r.Machine.trace)

(* [gen_replay_case]'s co-runs with contenders that end early: each runs
   one iteration of its loop, once, and raises nothing, so the analysis
   core goes on alone in the middle of its loop. *)
let gen_skip_case =
  let rec once = function
    | Program.I i when i = raising_instr -> []
    | Program.I _ as item -> [ item ]
    | Program.Loop { body; _ } -> [ Program.loop 1 (List.concat_map once body) ]
  in
  QCheck.Gen.map
    (fun (analysis, contenders, priorities, _) ->
       ( analysis,
         List.map
           (fun (t : Machine.task) ->
              let items = List.concat_map once (Program.items t.Machine.program) in
              { t with Machine.program = prog "once" items })
           contenders,
         priorities ))
    gen_replay_case

(* The untraced twin of the property above. Untraced, the event kernel
   applies whole loop periods at once while the analysis core is alone:
   every isolation, and co-runs once their [Once] contenders are done.
   The cycle limit is drawn across the reference's run, so that it can
   strike inside a skippable stretch; runs read cold scripts (regions
   detected on the way) and warm ones (regions known up front). The
   result, the per-target SRI totals, and the events and skipped cycles
   as counted from the reference's event cycles all match. *)
let prop_skip_matches_reference =
  QCheck.Test.make ~name:"skipped periods reproduce Ref_sim untraced, cycle limit included"
    ~count:60
    (QCheck.pair (QCheck.make gen_skip_case) (QCheck.int_range 250 1250))
    (fun ((analysis, contenders, priorities), per_mille) ->
       let pending = ref [] in
       let full =
         verdict (fun () ->
             Ref_sim.run ~max_cycles:replay_budget ?priorities ~restart_contenders:false
               ~trace:true ~pending ~analysis ~contenders ())
       in
       let max_cycles =
         match full with
         | Ok r when per_mille <= 1000 -> r.Machine.cycles * per_mille / 1000
         | _ -> replay_budget
       in
       let snap f =
         Obs.Metrics.reset ();
         let r = verdict f in
         let pick p = List.filter (fun (k, _) -> p k) (Obs.Metrics.deterministic_snapshot ()) in
         ( r,
           pick (String.starts_with ~prefix:"sri."),
           pick (fun k -> k = "tcsim.events" || k = "tcsim.skipped_cycles") )
       in
       let go () =
         Machine.run ~max_cycles ?priorities ~restart_contenders:false ~analysis ~contenders ()
       in
       let reference, sri, _ =
         snap (fun () ->
             Ref_sim.run ~max_cycles ?priorities ~restart_contenders:false ~analysis
               ~contenders ())
       in
       let work =
         match full with
         | Ok r ->
           let seen =
             List.filter (fun c -> c <= max_cycles) (reference_event_cycles ~pending:!pending r)
           in
           let n = List.length seen in
           let last = List.fold_left max (-1) seen in
           Some [ ("tcsim.events", n); ("tcsim.skipped_cycles", last + 1 - n) ]
         | Error _ -> None
       in
       let agrees (r, sri', work') =
         r = reference && sri' = sri
         && match work with Some w -> w = work' | None -> true
       in
       Machine.clear_scripts ();
       let cold = snap go in
       let warm = snap go in
       agrees cold && agrees warm)

(* Guards the property above against passing vacuously: untraced, whole
   periods are skipped on most generated programs; traced, never. A run
   on a cold script detects a region one period in, so skipping needs
   two more; on the script an earlier run compiled — the co-run after
   the isolations — it needs one. Both kinds skip. *)
let test_skip_fires () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:12 gen_replay_program
  in
  let skipped ~trace items =
    let run () =
      snd
        (skipped_by (fun () ->
             verdict (fun () ->
                 Machine.run ~trace ~analysis:{ Machine.program = prog "r" items; core = 0 } ())))
    in
    Machine.clear_scripts ();
    let cold = run () in
    (cold, run ())
  in
  let untraced = List.map (skipped ~trace:false) programs in
  let fired = List.filter (fun (_, warm) -> warm > 0) untraced in
  Alcotest.(check bool)
    (Printf.sprintf "skipping fired on %d of %d programs" (List.length fired)
       (List.length programs))
    true
    (2 * List.length fired >= List.length programs);
  Alcotest.(check bool) "and on cold scripts" true (List.exists (fun (cold, _) -> cold > 0) untraced);
  Alcotest.(check (list (pair int int))) "traced runs step every period"
    (List.map (fun _ -> (0, 0)) programs)
    (List.map (skipped ~trace:true) programs);
  Alcotest.(check bool) "the counter is timing-tier" false
    (List.mem_assoc "tcsim.solo.skipped_events" (Obs.Metrics.deterministic_snapshot ()))

(* Only the line buffer tells a region's first period from the rest: the
   last pf1 access of iteration 1 is the I$ miss on the loop's last
   code line, one line before the D$-thrashing load that opens every
   iteration, so that load streams in iteration 2 only. Caches, cycle
   offsets and interfaces are otherwise in the same state at the start
   of iterations 2 and 3. A run on the compiled script (regions known
   from the start) must not skip from that first comparison. *)
let test_skip_line_buffer () =
  let a = pf1_c + 0x2000 in
  let body =
    [ load a; load lmu_c; load (lmu_c + 0x1000) (* one D$ set, two ways *);
      load (Memory_map.pf1_uncached_base + 0x4000) ]
    @ List.init 800 (fun _ -> compute 1)
    @ [ compute ~pc:(a - 32) 1; load lmu_nc ]
  in
  let analysis = { Machine.program = prog "buffer" [ Program.loop 8 body ]; core = 0 } in
  let reference = Ref_sim.run ~trace:true ~analysis () in
  let first = List.nth reference.Machine.trace 0 in
  let streamed =
    List.filter (fun e -> e.Trace.target = Target.Pf1 && e.Trace.op = Op.Data) reference.Machine.trace
    |> List.map (fun e -> e.Trace.service)
  in
  Alcotest.(check bool) "the load streams in iteration 2 only" true
    (first.Trace.target = Target.Pf1
     && List.length (List.sort_uniq compare streamed) = 2
     && List.nth streamed 2 < List.nth streamed 0);
  Machine.clear_scripts ();
  ignore (Machine.run ~analysis ());
  let r, n = skipped_by (fun () -> Machine.run ~analysis ()) in
  Alcotest.(check bool) "periods were skipped" true (n > 0);
  Alcotest.(check bool) "result equals the reference" true
    (r = { reference with Machine.trace = [] })

let table6_app variant iterations =
  Workload.Control_loop.build variant { Workload.Control_loop.default_params with iterations }

let variant_name = function Workload.Control_loop.S1 -> "S1" | S2 -> "S2"

(* On the paper's workloads, an untraced isolation — which skips — equals
   the traced one, which steps every transaction, with the trace dropped,
   and counts the same events. *)
let test_skip_real_workloads () =
  let programs =
    List.concat_map
      (fun (scenario, level, app, con) ->
         if level = Workload.Load_gen.High then
           [ (scenario.Scenario.name ^ " app", app); (scenario.Scenario.name ^ " H-Load", con) ]
         else [])
      (figure4_cells ())
    @ List.map
        (fun v ->
           ( "Table 6 " ^ variant_name v,
             table6_app v Workload.Control_loop.default_params.Workload.Control_loop.iterations ))
        [ Workload.Control_loop.S1; Workload.Control_loop.S2 ]
  in
  let fired = ref 0 in
  List.iter
    (fun (name, program) ->
       let analysis = { Machine.program; core = 0 } in
       let run ~trace =
         Obs.Metrics.reset ();
         let r, n = skipped_by (fun () -> Machine.run ~trace ~analysis ()) in
         (r, n, List.assoc "tcsim.events" (Obs.Metrics.deterministic_snapshot ()))
       in
       let traced, _, e_traced = run ~trace:true in
       let plain, n, e_plain = run ~trace:false in
       if n > 0 then incr fired;
       Alcotest.(check int) (name ^ ": cycles") traced.Machine.cycles plain.Machine.cycles;
       Alcotest.(check bool) (name ^ ": counters, profile and restarts") true
         (plain = { traced with Machine.trace = [] });
       Alcotest.(check int) (name ^ ": tcsim.events") e_traced e_plain)
    programs;
  Alcotest.(check bool) "skipping fired on the paper's workloads" true (!fired > 0)

(* The scale target on the simulation side: Table 6's application in
   isolation steps as many events at ten times its iterations as at one
   time. The extra iterations all fall in whole skipped periods. *)
let test_skip_scale () =
  List.iter
    (fun variant ->
       let stepped iterations =
         Machine.clear_scripts ();
         Obs.Metrics.reset ();
         let (_ : Machine.run_result), n =
           skipped_by (fun () ->
               Machine.run ~analysis:{ Machine.program = table6_app variant iterations; core = 0 } ())
         in
         (List.assoc "tcsim.events" (Obs.Metrics.deterministic_snapshot ()), n)
       in
       let base = Workload.Control_loop.default_params.Workload.Control_loop.iterations in
       let e1, s1 = stepped base and e10, s10 = stepped (10 * base) in
       let name = variant_name variant in
       Alcotest.(check bool) (name ^ ": skipping fires at 1x") true (s1 > 0);
       Alcotest.(check bool) (name ^ ": and skips more at 10x") true (s10 > s1);
       Alcotest.(check int) (name ^ ": stepped events, 10x = 1x") (e1 - s1) (e10 - s10))
    [ Workload.Control_loop.S1; Workload.Control_loop.S2 ]

(* --- alone on the crossbar ------------------------------------------------------ *)

(* A [Once] contender's only transaction is granted at cycle 0 and
   occupies the LMU until after the analysis task issues there at cycle
   2: by then nothing is queued and the contender is done, so the
   analysis core runs alone, and its grant waits for the LMU — an event
   of its own. *)
let solo_analysis =
  {
    Machine.program =
      prog "solo" [ compute 2; load lmu_nc; Program.loop 30 [ load lmu_nc; compute 3 ] ];
    core = 0;
  }

let solo_contenders = [ { Machine.program = prog "once" [ load lmu_nc ]; core = 1 } ]

let solo_reference () =
  Ref_sim.run ~restart_contenders:false ~trace:true ~analysis:solo_analysis
    ~contenders:solo_contenders ()

(* What the kernel must wake for: issues, grants and the end. *)
let event_cycles (r : Machine.run_result) =
  List.sort_uniq compare
    (r.Machine.cycles
     :: List.concat_map (fun e -> [ e.Trace.issue_cycle; e.Trace.grant_cycle ]) r.Machine.trace)

let test_solo_delayed_grant () =
  let reference = solo_reference () in
  let first = List.find (fun e -> e.Trace.core = 0) reference.Machine.trace in
  Alcotest.(check bool) "the analysis task's first grant waits" true (first.Trace.waited > 0);
  let r, events =
    events_of (fun () ->
        Machine.run ~kernel:`Event ~restart_contenders:false ~trace:true
          ~analysis:solo_analysis ~contenders:solo_contenders ())
  in
  Alcotest.(check bool) "full result equals the reference" true (r = reference);
  Alcotest.(check int) "events: issues, the delayed grant and the end"
    (List.length (event_cycles reference)) events

(* The cycle limit striking while the analysis core runs alone — at an
   issue, or at the delayed grant — raises the same exception as the
   reference and leaves the same totals behind: events and skipped
   cycles as counted from the reference's event cycles up to the limit,
   and the per-target SRI totals of the reference itself. *)
let test_solo_cycle_limit () =
  let full = solo_reference () in
  let delayed = List.find (fun e -> e.Trace.core = 0) full.Machine.trace in
  let snap f =
    Obs.Metrics.reset ();
    let r = outcome f in
    let pick p = List.filter (fun (k, _) -> p k) (Obs.Metrics.deterministic_snapshot ()) in
    ( r,
      pick (String.starts_with ~prefix:"sri."),
      pick (fun k -> k = "tcsim.events" || k = "tcsim.skipped_cycles") )
  in
  List.iter
    (fun max_cycles ->
       let label = Printf.sprintf "limit %d" max_cycles in
       let r, sri, work =
         snap (fun () ->
             Machine.run ~kernel:`Event ~max_cycles ~restart_contenders:false
               ~analysis:solo_analysis ~contenders:solo_contenders ())
       in
       let r', sri', _ =
         snap (fun () ->
             Ref_sim.run ~max_cycles ~restart_contenders:false ~analysis:solo_analysis
               ~contenders:solo_contenders ())
       in
       Alcotest.(check bool) (label ^ ": same exception") true (r = r' && Result.is_error r);
       Alcotest.(check (list (pair string int))) (label ^ ": SRI totals") sri' sri;
       let seen = List.filter (fun c -> c <= max_cycles) (event_cycles full) in
       let last = List.fold_left max (-1) seen in
       Alcotest.(check (list (pair string int)))
         (label ^ ": events and skipped cycles")
         [
           ("tcsim.events", List.length seen);
           ("tcsim.skipped_cycles", last + 1 - List.length seen);
         ]
         work)
    [ delayed.Trace.issue_cycle - 1; delayed.Trace.issue_cycle; 100; full.Machine.cycles - 1 ]

(* An isolation run is alone from its first cycle: traced, it equals
   the reference, on synthetic programs and the paper's workloads. *)
let test_solo_traced_isolation () =
  List.iter
    (fun (name, program) ->
       let analysis = { Machine.program; core = 0 } in
       Alcotest.(check bool) (name ^ ": traced isolation equals the reference") true
         (Machine.run ~kernel:`Event ~trace:true ~analysis ()
          = Ref_sim.run ~trace:true ~analysis ()))
    (("solo", solo_analysis.Machine.program)
     :: List.concat_map
          (fun (scenario, level, app, con) ->
             if level = Workload.Load_gen.High then
               [ (scenario.Scenario.name ^ " app", app); (scenario.Scenario.name ^ " H-Load", con) ]
             else [])
          (figure4_cells ()))

(* --- the script memo, shared ------------------------------------------------ *)

(* Runs on four domains, plus two systhreads sharing the main domain,
   check the same scripts in and out concurrently: a script is lent to
   one of them at a time, the others compile their own, and every
   result still equals the reference. *)
let test_memo_concurrent_runs_match_reference () =
  (* random mixes, each program looped so that its script compiles
     throughout a run rather than in its first few events *)
  let longer (t : Machine.task) =
    let items = Program.items t.Machine.program in
    { t with Machine.program = prog "long" [ Program.loop 20_000 items ] }
  in
  let cases =
    Array.of_list
      (List.map
         (fun (analysis, contenders, priorities, restart) ->
            (longer analysis, List.map longer contenders, priorities, restart))
         (QCheck.Gen.generate ~rand:(Random.State.make [| 13 |]) ~n:12 gen_kernel_diff))
  in
  let run_case ~reference (analysis, contenders, priorities, restart) =
    outcome (fun () ->
        if reference then
          Ref_sim.run ~max_cycles:kernel_budget ~restart_contenders:restart ?priorities
            ~trace:true ~analysis ~contenders ()
        else
          Machine.run ~max_cycles:kernel_budget ~restart_contenders:restart ?priorities
            ~trace:true ~analysis ~contenders ())
  in
  let expected = Array.map (run_case ~reference:true) cases in
  (* the memo starts out with every script partly compiled, by runs
     that hit a small budget; every worker then walks the cases in the
     same order, so they keep asking for the same scripts at once,
     while those still compile *)
  Machine.clear_scripts ();
  Array.iter
    (fun (analysis, contenders, priorities, restart) ->
       ignore
         (outcome (fun () ->
              Machine.run ~max_cycles:2_000 ~restart_contenders:restart ?priorities
                ~analysis ~contenders ())))
    cases;
  let worker () = Array.map (run_case ~reference:false) cases in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let threads = Array.make 2 [||] in
  List.iter Thread.join
    (List.init 2 (fun k -> Thread.create (fun () -> threads.(k) <- worker ()) ()));
  List.iteri
    (fun w results ->
       Array.iteri
         (fun c r ->
            Alcotest.(check bool)
              (Printf.sprintf "worker %d, case %d equals the reference" w c)
              true (r = expected.(c)))
         results)
    (List.map Domain.join domains @ Array.to_list threads)

let test_memo_bounded () =
  (* Straight-line programs: with no loop to replay, every transaction
     is a stored segment. Each compiles 100k LMU transactions, ~1/5 of
     the cap; the programs share one list of loads. *)
  let loads n = List.init n (fun _ -> load lmu_nc) in
  let body = loads 100_000 in
  let mid i = prog (Printf.sprintf "mid%d" i) (compute (1 + i) :: body) in
  let hit p =
    let h0 = Obs.Metrics.value memo_hits in
    ignore (Machine.run_isolation p);
    Obs.Metrics.value memo_hits - h0 = 1
  in
  Machine.clear_scripts ();
  let programs = List.init 8 mid in
  List.iter
    (fun p ->
       ignore (Machine.run_isolation p);
       Alcotest.(check bool) "retained segments within the cap" true
         (memo_segments () <= Machine.script_memo_cap))
    programs;
  Alcotest.(check bool) "the most recently returned script is kept" true
    (hit (List.nth programs 7));
  Alcotest.(check bool) "the least recently returned one was evicted" false
    (hit (List.nth programs 0));
  (* 600k transactions: more segments than the cap *)
  let huge = prog "huge" (loads 600_000) in
  let before = memo_segments () in
  let r = Machine.run_isolation huge in
  Alcotest.(check int) "an oversize script is not retained" before
    (memo_segments ());
  Alcotest.(check bool) "nor read back" false (hit huge);
  Alcotest.(check bool) "and its run was exact" true
    (r = Ref_sim.run ~analysis:{ Machine.program = huge; core = 0 } ())

let test_memo_restarting_corun_extends_isolation_script () =
  (* the isolation compiles one pass of the contender; the co-run
     restarts it with warm caches — its data in the D$, its code in the
     I$ — compiling the later passes onto the same script *)
  let analysis =
    { Machine.program = prog "long" [ Program.loop 300 [ load lmu_nc; compute 5 ] ]; core = 0 }
  in
  List.iter
    (fun (name, items) ->
       let contender = { Machine.program = prog name items; core = 1 } in
       Machine.clear_scripts ();
       ignore (Machine.run ~analysis:contender ());
       let h0 = Obs.Metrics.value memo_hits in
       let r = Machine.run ~trace:true ~analysis ~contenders:[ contender ] () in
       Alcotest.(check bool) (name ^ ": the co-run read the isolation's script") true
         (Obs.Metrics.value memo_hits - h0 >= 1);
       Alcotest.(check bool) (name ^ ": the contender restarted") true
         ((List.assoc 1 r.Machine.contenders).Machine.restarts > 0);
       Alcotest.(check bool) (name ^ ": co-run equals the reference") true
         (r = Ref_sim.run ~trace:true ~analysis ~contenders:[ contender ] ()))
    [
      ("warm data", [ Program.loop 4 [ load lmu_c; compute 2 ]; load lmu_nc ]);
      ("warm code", [ compute ~pc:pf0_c 1; compute ~pc:(pf0_c + 4) 2; load lmu_nc ]);
    ]

let () =
  Alcotest.run "tcsim"
    [
      ( "memory-map",
        [
          Alcotest.test_case "classify" `Quick test_memory_map_classify;
          Alcotest.test_case "windows" `Quick test_memory_map_windows;
          Alcotest.test_case "line_of" `Quick test_line_of;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty victim" `Quick test_cache_dirty_victim;
          Alcotest.test_case "clean victim silent" `Quick test_cache_clean_victim_silent;
          Alcotest.test_case "write hit dirties" `Quick test_cache_write_hit_dirties;
          Alcotest.test_case "canonical snapshot" `Quick test_cache_snapshot;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
        ] );
      ( "program",
        [
          Alcotest.test_case "flat walker" `Quick test_walker_flat;
          Alcotest.test_case "nested loops" `Quick test_walker_loops;
          Alcotest.test_case "loop boundaries" `Quick test_walker_boundaries;
          Alcotest.test_case "partial skip" `Quick test_walker_partial_skip;
          Alcotest.test_case "zero loop" `Quick test_walker_zero_loop;
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "seq layout" `Quick test_seq_layout;
          Alcotest.test_case "digest perturbations" `Quick test_digest_perturbations;
          QCheck_alcotest.to_alcotest prop_digest_iff_items;
        ] );
      ( "sri-timing",
        [
          Alcotest.test_case "single load latencies" `Quick test_single_load_latencies;
          Alcotest.test_case "single store latency" `Quick test_single_store_latency;
          Alcotest.test_case "single fetch latency" `Quick test_single_fetch_latency;
          Alcotest.test_case "pflash store rejected" `Quick test_store_to_pflash_rejected;
          Alcotest.test_case "stall floor (lmu)" `Quick test_stall_floor_lmu;
          Alcotest.test_case "streaming code stall" `Quick test_streaming_code_stall;
          Alcotest.test_case "scratchpad silent" `Quick test_scratchpad_silent;
          Alcotest.test_case "counters valid" `Quick test_counters_valid;
        ] );
      ( "dcache",
        [
          Alcotest.test_case "hits avoid SRI" `Quick test_dcache_hits_no_sri;
          Alcotest.test_case "dirty write-back" `Quick test_dcache_dirty_writeback;
          Alcotest.test_case "1.6E has no dcache" `Quick test_e16_has_no_dcache;
        ] );
      ( "contention",
        [
          Alcotest.test_case "parallel targets" `Quick test_parallel_targets_no_contention;
          Alcotest.test_case "bounded same-target delay" `Quick test_same_target_bounded_delay;
          Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
          Alcotest.test_case "contender restarts" `Quick test_contender_restarts;
          Alcotest.test_case "machine validation" `Quick test_machine_validation;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
          Alcotest.test_case "kernels agree on real workloads" `Quick
            test_kernels_agree_on_workloads;
          Alcotest.test_case "strict priority starves the analysis task" `Quick
            test_strict_priority_starvation;
          Alcotest.test_case "edge cases match the reference" `Quick
            test_edge_cases_match_reference;
        ] );
      ( "priorities-traces",
        [
          Alcotest.test_case "priority limits waits" `Quick test_priority_limits_waits;
          Alcotest.test_case "priority validation" `Quick test_priority_validation;
          Alcotest.test_case "trace records transactions" `Quick test_trace_records_transactions;
          Alcotest.test_case "trace disabled empty" `Quick test_trace_disabled_is_empty;
          Alcotest.test_case "trace csv" `Quick test_trace_csv;
          Alcotest.test_case "waits bounded by co-runner service" `Quick
            test_trace_waits_bounded_by_corunner_service;
        ] );
      ( "events",
        [
          Alcotest.test_case "silent program costs one event" `Quick
            test_silent_program_costs_one_event;
          Alcotest.test_case "events are issues, grants and the end" `Quick
            test_events_are_issues_and_grants;
          Alcotest.test_case "a warm co-run allocates nothing per event" `Quick
            test_warm_corun_allocation;
        ] );
      ( "loop-replay",
        [
          Alcotest.test_case "replay fires on the generated programs" `Quick test_replay_fires;
          Alcotest.test_case "10x iterations compile no more segments" `Quick
            test_replay_scale;
          Alcotest.test_case "10x iterations step no more events" `Quick test_skip_scale;
          Alcotest.test_case "two cores read one replayed script" `Quick
            test_replay_shared_script;
          Alcotest.test_case "nested regions fire on the generated programs" `Quick
            test_nested_replay_fires;
          QCheck_alcotest.to_alcotest prop_replay_matches_reference;
          QCheck_alcotest.to_alcotest prop_nested_replay_matches_reference;
          Alcotest.test_case "short loops replay on the generated programs" `Quick
            test_short_replay_fires;
          Alcotest.test_case "a short-body contender stores no more at 10x" `Quick
            test_short_replay_scale;
          QCheck_alcotest.to_alcotest prop_short_replay_matches_reference;
        ] );
      ( "skip-periods",
        [
          Alcotest.test_case "skipping fires untraced, never traced" `Quick test_skip_fires;
          Alcotest.test_case "untraced isolation equals traced on real workloads" `Quick
            test_skip_real_workloads;
          Alcotest.test_case "a line buffer that differs at the first boundary" `Quick
            test_skip_line_buffer;
          QCheck_alcotest.to_alcotest prop_skip_matches_reference;
        ] );
      ( "alone-on-sri",
        [
          Alcotest.test_case "delayed grant behind a finished contender" `Quick
            test_solo_delayed_grant;
          Alcotest.test_case "cycle limit while alone" `Quick test_solo_cycle_limit;
          Alcotest.test_case "traced isolation equals the reference" `Quick
            test_solo_traced_isolation;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "PM = SRI code count" `Quick test_profile_matches_pcache_miss;
        ] );
      ( "stats",
        [
          Alcotest.test_case "digest" `Quick (fun () ->
              let p =
                prog "s" [ compute 10; Program.loop 20 [ load lmu_nc ] ]
              in
              let r =
                Machine.run ~trace:true ~analysis:{ Machine.program = p; core = 0 } ()
              in
              let s = Stats.of_run r in
              Alcotest.(check int) "requests" 20 s.Stats.sri_requests;
              Alcotest.(check int) "lmu share" 20 (List.assoc Target.Lmu s.Stats.per_target);
              Alcotest.(check bool) "stall fraction in (0,1)" true
                (s.Stats.stall_fraction > 0. && s.Stats.stall_fraction < 1.);
              Alcotest.(check bool) "lmu utilization positive" true
                (List.assoc Target.Lmu s.Stats.utilization > 0.));
        ] );
      ( "script-memo",
        [
          Alcotest.test_case "concurrent runs match reference" `Quick
            test_memo_concurrent_runs_match_reference;
          Alcotest.test_case "retained segments bounded" `Quick test_memo_bounded;
          Alcotest.test_case "restarting co-run extends isolation script" `Quick
            test_memo_restarting_corun_extends_isolation_script;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cache_matches_reference;
            prop_walker_visits_dynamic_length;
            prop_simulation_deterministic;
            prop_kernels_agree;
            prop_kernels_agree_on_cycle_limit;
            prop_memo_runs_match_reference;
            prop_memo_cycle_limit_matches_reference;
            prop_metrics_match_reference;
          ] );
    ]
