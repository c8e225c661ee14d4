(* Tests for the serve layer.

   Protocol: QCheck round-trip (encode -> decode = id) over random valid
   requests and responses, plus golden request/response fixtures under
   golden/ pinning the wire format byte-for-byte.
   Admission control: one test per rejection path (parse, invalid,
   oversize line, oversize program, lint) — the daemon must answer a
   structured reject, never crash.
   Stable serialization: golden digests for the query/run/solve cache
   keys and entry round-trips, so a refactor that would silently
   invalidate persistent caches fails here first.
   Disk tier: checksum verification against truncation/bit-flips/empty
   files (quarantine + recompute), cold-start warm-up across "restarts",
   and the runtime caches replaying simulations/solves from disk.
   Concurrency: a client hammer over a real Unix socket — single-flight,
   request/response correlation, and byte-identical results at jobs=1
   and jobs=4. *)

module P = Serve.Protocol
module J = Obs.Json
module M = Tcsim.Memory_map

(* --- helpers ----------------------------------------------------------- *)

let rm_rf dir =
  let rec go p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    | _ -> Unix.unlink p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go dir

let with_tmpdir f =
  let dir = Filename.temp_file "aurix-serve-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let mk_engine ?(jobs = 1) ?max_request_bytes ?max_program_size ?disk
    ?(persist = false) () =
  let d = Serve.Engine.default_config in
  Serve.Engine.create
    {
      Serve.Engine.jobs = Some jobs;
      max_request_bytes =
        Option.value ~default:d.Serve.Engine.max_request_bytes
          max_request_bytes;
      max_program_size =
        Option.value ~default:d.Serve.Engine.max_program_size max_program_size;
      disk;
      persist_runtime_caches = persist;
    }

let reply_of engine line =
  match Serve.Engine.handle_line engine line with
  | `Reply r | `Stop r -> r

let decode_reply line =
  match P.decode_response line with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable response %S: %s" line e

let expect_reject engine ?id code line =
  match decode_reply (reply_of engine line) with
  | P.Reject { xid; code = got; diagnostics; _ } ->
    Alcotest.(check string)
      "reject code"
      (P.reject_code_to_string code)
      (P.reject_code_to_string got);
    (match id with
     | None -> ()
     | Some id -> Alcotest.(check (option string)) "reject id" (Some id) xid);
    (xid, diagnostics)
  | other ->
    Alcotest.failf "expected a %s reject, got %s"
      (P.reject_code_to_string code)
      (P.encode_response other)

let metric name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metrics.deterministic_snapshot ()))

(* The canonical healthy query (also the golden request fixture). *)
let golden_query =
  {
    P.id = "golden-1";
    scenario = "scenario1";
    app = P.App_bundled;
    contenders = [ P.Con_level { level = Workload.Load_gen.High; core = 1 } ];
    models = [ P.Ftc; P.Ilp_ptac; P.Ideal ];
    observed = true;
    trace = None;
  }

(* A contender whose load target is unmapped: the program lint rejects
   the co-run with an error-severity [address-unmapped] diagnostic (also
   the golden lint-reject fixture, replayed by the CI smoke test). *)
let lint_reject_query =
  {
    P.id = "lint-reject-1";
    scenario = "scenario1";
    app = P.App_bundled;
    contenders =
      [
        P.Con_inline
          {
            ccore = 1;
            cprogram =
              {
                P.pname = "bad-load";
                pitems =
                  [
                    Tcsim.Program.I
                      { pc = M.pspr_base; kind = Tcsim.Program.Load 0x1234 };
                  ];
              };
          };
      ];
    models = [ P.Ftc ];
    observed = false;
    trace = None;
  }

let analyze_line q = P.encode_request (P.Analyze q)

type reply_result = {
  rrid : string;
  rcache : P.provenance;
  rresult : P.analyze_result;
}

let result_of_reply line =
  match decode_reply line with
  | P.Result { rid; cache; result; _ } ->
    { rrid = rid; rcache = cache; rresult = result }
  | other ->
    Alcotest.failf "expected a result, got %s" (P.encode_response other)

(* Comparable payload: the result JSON without wall-clock/provenance. *)
let result_bytes line =
  J.to_string (P.result_to_json (result_of_reply line).rresult)

(* --- protocol: QCheck round-trip --------------------------------------- *)

let gen_id =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'q'; 'z'; '0'; '7'; '-'; '_' ]) (0 -- 8))

let gen_level = QCheck.Gen.oneofl Workload.Load_gen.[ High; Medium; Low ]
let gen_model = QCheck.Gen.oneofl [ P.Ideal; P.Ftc; P.Ilp_ptac ]

let gen_instr =
  let open QCheck.Gen in
  let* pc = map (fun i -> M.pf0_cached_base + (4 * i)) (0 -- 1000) in
  oneof
    [
      map (fun n -> Tcsim.Program.I { pc; kind = Tcsim.Program.Compute (1 + n) }) (0 -- 5);
      map
        (fun a ->
           Tcsim.Program.I
             { pc; kind = Tcsim.Program.Load (M.lmu_uncached_base + (4 * a)) })
        (0 -- 500);
      map
        (fun a ->
           Tcsim.Program.I
             { pc; kind = Tcsim.Program.Store (M.lmu_uncached_base + (4 * a)) })
        (0 -- 500);
    ]

let rec gen_item depth =
  let open QCheck.Gen in
  if depth = 0 then gen_instr
  else
    frequency
      [
        (3, gen_instr);
        ( 1,
          let* count = 0 -- 4 in
          let* body = list_size (1 -- 3) (gen_item (depth - 1)) in
          return (Tcsim.Program.Loop { count; body }) );
      ]

let gen_program =
  let open QCheck.Gen in
  let* pname = gen_id in
  let* pitems = list_size (1 -- 5) (gen_item 2) in
  return { P.pname; pitems }

let gen_analyze =
  let open QCheck.Gen in
  let* id = gen_id in
  let* scenario = oneofl [ "scenario1"; "scenario2"; "unrestricted"; "nope" ] in
  let* app =
    oneof [ return P.App_bundled; map (fun p -> P.App_inline p) gen_program ]
  in
  let* contenders =
    list_size (0 -- 2)
      (oneof
         [
           (let* level = gen_level in
            let* core = 1 -- 2 in
            return (P.Con_level { level; core }));
           (let* ccore = 1 -- 2 in
            let* cprogram = gen_program in
            return (P.Con_inline { ccore; cprogram }));
         ])
  in
  let* models = list_size (0 -- 3) gen_model in
  let* observed = bool in
  let* trace =
    opt
      (let* trace_id = gen_id in
       let* parent_span = gen_id in
       return { P.trace_id; parent_span })
  in
  return { P.id; scenario; app; contenders; models; observed; trace }

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      map (fun id -> P.Ping id) gen_id;
      map (fun id -> P.Metrics_req id) gen_id;
      map (fun id -> P.Stats_req id) gen_id;
      map (fun id -> P.Shutdown id) gen_id;
      map (fun q -> P.Analyze q) gen_analyze;
    ]

let gen_counters =
  let open QCheck.Gen in
  let* ccnt = 0 -- 100000 in
  let* pmem_stall = 0 -- 10000 in
  let* dmem_stall = 0 -- 10000 in
  let* pcache_miss = 0 -- 1000 in
  let* dcache_miss_clean = 0 -- 1000 in
  let* dcache_miss_dirty = 0 -- 1000 in
  return
    {
      Platform.Counters.ccnt;
      pmem_stall;
      dmem_stall;
      pcache_miss;
      dcache_miss_clean;
      dcache_miss_dirty;
    }

let gen_result =
  let open QCheck.Gen in
  let* isolation_cycles = 0 -- 10_000_000 in
  let* observed_cycles = opt (0 -- 10_000_000) in
  let* bounds = list_size (0 -- 3) (pair gen_model (opt (0 -- 1_000_000))) in
  let* app_counters = gen_counters in
  let* contender_counters = list_size (0 -- 2) (pair (1 -- 2) gen_counters) in
  return
    { P.isolation_cycles; observed_cycles; bounds; app_counters; contender_counters }

let gen_diag =
  let open QCheck.Gen in
  let* severity = oneofl Analysis.Diag.[ Error; Warning; Info ] in
  let* rule = gen_id in
  let* path = list_size (0 -- 3) gen_id in
  let* message = gen_id in
  let* equation = opt gen_id in
  return { Analysis.Diag.severity; rule; path; message; equation }

let gen_response =
  let open QCheck.Gen in
  oneof
    [
      (let* rid = gen_id in
       let* cache = oneofl [ P.Computed; P.Memory; P.Disk ] in
       let* wall_us = 0 -- 100_000_000 in
       let* result = gen_result in
       return (P.Result { rid; cache; wall_us; result }));
      (let* xid = opt gen_id in
       let* code =
         oneofl [ P.Parse; P.Invalid; P.Oversize; P.Lint; P.Cycle_limit; P.Internal ]
       in
       let* message = gen_id in
       let* diagnostics = list_size (0 -- 2) gen_diag in
       return (P.Reject { xid; code; message; diagnostics }));
      map (fun id -> P.Pong id) gen_id;
      (let* mid = gen_id in
       let* n = 0 -- 100 in
       return
         (P.Metrics_reply { mid; metrics = J.Obj [ ("serve.requests", J.Int n) ] }));
      (let* sid = gen_id in
       let* stats = list_size (0 -- 3) (pair gen_id (0 -- 1000)) in
       let* payload =
         oneof
           [
             return J.Null;
             (let* up = 0 -- 10000 in
              let* infl = 0 -- 16 in
              return
                (J.Obj
                   [ ("uptime_s", J.Int up); ("in_flight", J.Int infl) ]));
           ]
       in
       return (P.Stats_reply { sid; stats; payload }));
      map (fun id -> P.Shutdown_ack id) gen_id;
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode->decode = id" ~count:500
    (QCheck.make gen_request) (fun r ->
        P.decode_request (P.encode_request r) = Ok r)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode->decode = id" ~count:500
    (QCheck.make gen_response) (fun r ->
        P.decode_response (P.encode_response r) = Ok r)

(* --- protocol: golden fixtures ----------------------------------------- *)

let read_golden name =
  let ic = open_in (Filename.concat "golden" name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> input_line ic)

let golden_response =
  P.Result
    {
      rid = "golden-1";
      cache = P.Computed;
      wall_us = 1234;
      result =
        {
          P.isolation_cycles = 1000;
          observed_cycles = Some 1100;
          bounds = [ (P.Ftc, Some 400); (P.Ilp_ptac, Some 150); (P.Ideal, None) ];
          app_counters =
            {
              Platform.Counters.ccnt = 1000;
              pmem_stall = 200;
              dmem_stall = 100;
              pcache_miss = 20;
              dcache_miss_clean = 5;
              dcache_miss_dirty = 1;
            };
          contender_counters =
            [
              ( 1,
                {
                  Platform.Counters.ccnt = 900;
                  pmem_stall = 300;
                  dmem_stall = 50;
                  pcache_miss = 30;
                  dcache_miss_clean = 0;
                  dcache_miss_dirty = 0;
                } );
            ];
        };
    }

let test_golden_request () =
  let file = read_golden "serve_request.json" in
  Alcotest.(check string)
    "encoder matches fixture" file
    (P.encode_request (P.Analyze golden_query));
  match P.decode_request file with
  | Ok (P.Analyze q) ->
    Alcotest.(check bool) "decoder matches fixture" true (q = golden_query)
  | _ -> Alcotest.fail "fixture did not decode to the golden query"

let test_golden_response () =
  let file = read_golden "serve_response.json" in
  Alcotest.(check string)
    "encoder matches fixture" file
    (P.encode_response golden_response);
  Alcotest.(check bool)
    "decoder matches fixture" true
    (P.decode_response file = Ok golden_response)

let test_golden_lint_reject () =
  let file = read_golden "serve_lint_reject.json" in
  Alcotest.(check string)
    "encoder matches fixture" file
    (P.encode_request (P.Analyze lint_reject_query));
  match P.decode_request file with
  | Ok (P.Analyze q) ->
    Alcotest.(check bool) "decoder matches fixture" true (q = lint_reject_query)
  | _ -> Alcotest.fail "fixture did not decode to the lint-reject query"

(* A stats reply must carry its payload: without it the line is an
   error, not a reply with an empty payload. *)
let test_stats_reply_requires_payload () =
  let line =
    P.encode_response
      (P.Stats_reply
         { sid = "s"; stats = [ ("served", 1) ]; payload = J.Obj [] })
  in
  let without =
    match J.parse line with
    | Ok (J.Obj kvs) -> J.to_string (J.Obj (List.remove_assoc "payload" kvs))
    | _ -> Alcotest.fail "unparsable stats reply"
  in
  Alcotest.(check bool) "with payload decodes" true
    (Result.is_ok (P.decode_response line));
  Alcotest.(check bool) "without payload is an error" true
    (Result.is_error (P.decode_response without))

(* --- stable cache keys and entries -------------------------------------- *)

(* Pinned hex digests: if any of these change, on-disk caches written by
   earlier builds silently stop matching — bump the format version and
   migrate instead of editing the expectation. The two run keys are
   format v2 ({!Runtime.Run_cache.key_format_version}); each was checked
   against an independent rendering of the v2 layout (header fields,
   then per task [#core:] and the MD5 of the program's fixed-width item
   encoding). *)
let expected_query_digest = "4682c0208516fdd8152a6beea2f38539"
let expected_run_key_version = 2
let expected_run_fingerprint = "863375e52a10ce0b0134b08c182fb780"
let expected_wide_run_fingerprint = "f1824af97c1eb68e66481baea4ae7477"

(* the v1 key of [expected_run_fingerprint]'s request *)
let v1_run_fingerprint = "c1fb13491754654423f7692a37bffb93"

(* the golden query's address while the query digest hashed the v1
   wire rendering *)
let v1_query_digest = "04b74dd2843bbe551660bb859c60a1fa"
let expected_solve_key = "a87cb24c98ba740b7b21a2df83bfdfdc"

let test_query_digest_golden () =
  Alcotest.(check string)
    "digest of the golden query" expected_query_digest
    (Serve.Engine.digest golden_query);
  (* the correlation id is excluded: same analysis => same entry *)
  Alcotest.(check string)
    "id does not affect the digest" expected_query_digest
    (Serve.Engine.digest { golden_query with P.id = "other" });
  (* so is the v2 trace context: tracing a request must not fork its
     cache entry away from the untraced population *)
  Alcotest.(check string)
    "trace does not affect the digest" expected_query_digest
    (Serve.Engine.digest
       { golden_query with
         P.trace = Some { P.trace_id = "abc"; parent_span = "def" } })

let tiny_program =
  Tcsim.Program.make ~name:"tiny"
    [
      Tcsim.Program.I
        { pc = M.pf0_cached_base; kind = Tcsim.Program.Compute 1 };
      Tcsim.Program.I
        { pc = M.pf0_cached_base + 4;
          kind = Tcsim.Program.Load M.lmu_uncached_base };
    ]

let test_run_fingerprint_golden () =
  Alcotest.(check int)
    "key format version" expected_run_key_version
    Runtime.Run_cache.key_format_version;
  let fp =
    Runtime.Run_cache.fingerprint ~config:Tcsim.Machine.default_config
      ~max_cycles:1_000_000 ~restart_contenders:false ~priorities:None
      ~trace:false ~kernel:`Event
      ~analysis:{ Tcsim.Machine.program = tiny_program; core = 0 }
      ~contenders:[]
  in
  Alcotest.(check string) "run fingerprint" expected_run_fingerprint fp;
  Alcotest.(check (option string))
    "fingerprint is a valid key" (Some fp)
    (Runtime.Run_cache.key_of_string (Runtime.Run_cache.key_to_string fp))

(* Every item shape a key renders: stores, nested and zero-count loops,
   multi-digit computes, and two prioritised contenders. *)
let wide_program =
  let open Tcsim.Program in
  make ~name:"wide"
    [
      I { pc = M.pf0_cached_base; kind = Compute 12 };
      loop 3
        [
          I { pc = M.pf0_cached_base + 4; kind = Load (M.lmu_cached_base + 0x40) };
          loop 0
            [
              I { pc = M.pf0_cached_base + 8;
                  kind = Store (M.lmu_uncached_base + 0x1f0) };
            ];
          loop 17
            [
              I { pc = M.pf0_cached_base + 12; kind = Compute 1234 };
              I { pc = M.pf0_cached_base + 16; kind = Store (M.dfl_base + 0x2468) };
            ];
        ];
      I { pc = M.pf1_uncached_base + 0xabc; kind = Store (M.dspr_base + 0x10) };
    ]

let wide_contender pc_base addr =
  let open Tcsim.Program in
  make ~name:"c"
    [
      loop 250
        [ I { pc = pc_base; kind = Load addr }; I { pc = pc_base + 4; kind = Compute 7 } ];
    ]

let wide_fingerprint fingerprint =
  fingerprint ~config:Tcsim.Machine.default_config ~max_cycles:5_000_000
    ~restart_contenders:true ~priorities:(Some [| 2; 0; 1 |]) ~trace:true
    ~kernel:`Stepped
    ~analysis:{ Tcsim.Machine.program = wide_program; core = 0 }
    ~contenders:
      [
        { Tcsim.Machine.program =
            wide_contender M.pf1_cached_base (M.lmu_uncached_base + 0x800);
          core = 1 };
        { Tcsim.Machine.program =
            wide_contender (M.pf0_uncached_base + 0x100) (M.dfl_base + 0x1000);
          core = 2 };
      ]

let test_wide_run_fingerprint_golden () =
  Alcotest.(check string)
    "wide run fingerprint" expected_wide_run_fingerprint
    (wide_fingerprint Runtime.Run_cache.fingerprint)

(* A disk tier written under v1 keys: the entry stored under the
   request's v1 key is never asked for, the run is simulated, and the
   outcome is saved under its v2 key. *)
let test_v1_run_key_never_consulted () =
  let loads = ref [] and saves = ref [] in
  let poisoned = Runtime.Run_cache.entry_to_string (Runtime.Run_cache.Limit 7) in
  Runtime.Run_cache.clear ();
  Runtime.Run_cache.set_store
    (Some
       {
         Runtime.Run_cache.load =
           (fun k ->
              loads := k :: !loads;
              if k = v1_run_fingerprint then Some poisoned else None);
         save = (fun k _ -> saves := k :: !saves);
       });
  Fun.protect
    ~finally:(fun () ->
        Runtime.Run_cache.set_store None;
        Runtime.Run_cache.clear ())
  @@ fun () ->
  let analysis = { Tcsim.Machine.program = tiny_program; core = 0 } in
  let r =
    Runtime.Run_cache.run ~max_cycles:1_000_000 ~restart_contenders:false
      ~kernel:`Event ~analysis ()
  in
  let fresh =
    Tcsim.Machine.run ~max_cycles:1_000_000 ~restart_contenders:false ~analysis ()
  in
  Alcotest.(check int) "simulated, not the v1 entry" fresh.Tcsim.Machine.cycles
    r.Tcsim.Machine.cycles;
  Alcotest.(check (list string)) "looked up under the v2 key only"
    [ expected_run_fingerprint ] !loads;
  Alcotest.(check (list string)) "saved under the v2 key"
    [ expected_run_fingerprint ] !saves

let tiny_model () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~ub:(Numeric.Q.of_int 5) "x" in
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (Numeric.Q.of_int 3, x) ]);
  m

let test_solve_key_golden () =
  let k =
    Runtime.Solve_cache.canonical_key ~tag:"test"
      (Ilp.Canonical.of_model (tiny_model ()))
  in
  Alcotest.(check string) "solve key" expected_solve_key k;
  Alcotest.(check (option string))
    "key is valid" (Some k)
    (Runtime.Solve_cache.key_of_string k)

let test_key_of_string_rejects () =
  List.iter
    (fun s ->
       Alcotest.(check (option string))
         (Printf.sprintf "%S rejected" s)
         None
         (Runtime.Run_cache.key_of_string s))
    [ ""; "xyz"; String.make 31 'a'; String.make 33 'a'; String.make 32 'G' ]

let test_run_entry_roundtrip () =
  let r =
    Tcsim.Machine.run ~trace:true
      ~analysis:{ Tcsim.Machine.program = tiny_program; core = 0 }
      ~contenders:[] ()
  in
  let s = Runtime.Run_cache.entry_to_string (Runtime.Run_cache.Finished r) in
  (match Runtime.Run_cache.entry_of_string s with
   | Some o ->
     Alcotest.(check string)
       "run entry round-trips" s
       (Runtime.Run_cache.entry_to_string o)
   | None -> Alcotest.fail "run entry did not parse back");
  (* limit outcome, pinned *)
  let limit = Runtime.Run_cache.Limit 7 in
  let ls = Runtime.Run_cache.entry_to_string limit in
  Alcotest.(check string)
    "limit entry format" "{\"v\": 1, \"outcome\": \"limit\", \"cycles\": 7}" ls;
  Alcotest.(check bool)
    "limit round-trips" true
    (Runtime.Run_cache.entry_of_string ls = Some limit);
  Alcotest.(check bool)
    "garbage rejected" true
    (Runtime.Run_cache.entry_of_string "{\"v\": 99}" = None)

let test_solve_entry_roundtrip () =
  let open Runtime.Solve_cache in
  let q a b =
    Numeric.Q.make (Numeric.Bigint.of_int a) (Numeric.Bigint.of_int b)
  in
  let outcomes =
    [
      Solved
        (Ilp.Solution.Optimal
           { objective = q 7 2; values = [| q 1 1; q (-5) 3; q 0 1 |] });
      Solved Ilp.Solution.Infeasible;
      Solved Ilp.Solution.Unbounded;
      Node_limit;
    ]
  in
  List.iter
    (fun o ->
       let s = entry_to_string o in
       match entry_of_string s with
       | Some o' ->
         Alcotest.(check string) "solve entry round-trips" s (entry_to_string o')
       | None -> Alcotest.failf "solve entry did not parse back: %s" s)
    outcomes;
  Alcotest.(check string)
    "node-limit entry format"
    "{\"v\": 1, \"outcome\": \"node-limit\"}"
    (entry_to_string Node_limit);
  Alcotest.(check bool)
    "garbage rejected" true
    (entry_of_string "{\"v\": 1, \"outcome\": \"wat\"}" = None)

(* --- admission control --------------------------------------------------- *)

let test_reject_parse () =
  let e = mk_engine () in
  List.iter
    (fun line -> ignore (expect_reject e P.Parse line))
    [
      "not json at all";
      "{";
      "{\"v\": 2}";
      "{\"v\": \"2\", \"op\": \"ping\", \"id\": \"x\"}";
      "{\"v\": 2, \"op\": \"frobnicate\", \"id\": \"x\"}";
      "{\"v\": 2, \"op\": \"analyze\", \"id\": \"x\"}";
      "[1, 2, 3]";
    ];
  (* any other version is refused by a reject that names it, itself
     rendered at the one wire version *)
  List.iter
    (fun (v, line) ->
       let reply = reply_of e line in
       (match J.parse reply with
        | Ok j ->
          Alcotest.(check bool) "reject rendered at v2" true
            (J.member "v" j = Some (J.Int 2))
        | Error _ -> Alcotest.failf "unparsable reply %S" reply);
       match decode_reply reply with
       | P.Reject { code = P.Parse; message; _ } ->
         Alcotest.(check string) "message names the version"
           (Printf.sprintf "unsupported protocol version %d" v)
           message
       | other ->
         Alcotest.failf "expected a parse reject, got %s"
           (P.encode_response other))
    [
      (1, "{\"v\": 1, \"op\": \"ping\", \"id\": \"old\"}");
      (1, "{\"v\": 1, \"op\": \"stats\", \"id\": \"old\"}");
      ( 1,
        "{\"v\": 1, \"op\": \"analyze\", \"id\": \"x\", \"scenario\": \
         \"scenario1\", \"app\": \"bundled\", \"contenders\": [], \"models\": \
         [\"ftc\"], \"observed\": false}" );
      (3, "{\"v\": 3, \"op\": \"ping\", \"id\": \"x\"}");
    ]

let test_reject_invalid () =
  let e = mk_engine () in
  let q line = ignore (expect_reject e ~id:"lint-reject-1" P.Invalid line) in
  q (analyze_line { lint_reject_query with P.scenario = "scenario9" });
  q (analyze_line { lint_reject_query with P.models = [] });
  q
    (analyze_line
       {
         lint_reject_query with
         P.contenders =
           [ P.Con_level { level = Workload.Load_gen.Low; core = 0 } ];
       });
  q
    (analyze_line
       {
         lint_reject_query with
         P.contenders =
           [ P.Con_level { level = Workload.Load_gen.Low; core = 9 } ];
       });
  q
    (analyze_line
       {
         lint_reject_query with
         P.contenders =
           [
             P.Con_level { level = Workload.Load_gen.Low; core = 1 };
             P.Con_level { level = Workload.Load_gen.High; core = 1 };
           ];
       });
  (* Program.make invariant violations surface as invalid, not a crash *)
  q
    (analyze_line
       {
         lint_reject_query with
         P.app =
           P.App_inline
             {
               P.pname = "bad";
               pitems =
                 [
                   Tcsim.Program.I
                     { pc = M.pf0_cached_base; kind = Tcsim.Program.Compute 0 };
                 ];
             };
         contenders = [];
       })

let test_reject_oversize_line () =
  let e = mk_engine ~max_request_bytes:64 () in
  let xid, _ =
    expect_reject e P.Oversize
      (analyze_line { golden_query with P.id = String.make 100 'x' })
  in
  Alcotest.(check (option string)) "no id on an unread request" None xid

(* Over a real socket: a line that never ends is rejected as soon as it
   passes the limit, not buffered until a newline arrives, and the
   connection keeps serving after the newline that ends it. *)
let test_reject_oversize_while_reading () =
  with_tmpdir @@ fun dir ->
  let addr = Serve.Server.Unix_path (Filename.concat dir "s.sock") in
  let engine = mk_engine ~max_request_bytes:64 () in
  let stop = Atomic.make false in
  let server =
    Thread.create (fun () -> Serve.Server.serve ~engine ~addr ~stop ()) ()
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
        (try Unix.close fd with _ -> ());
        Atomic.set stop true;
        Thread.join server;
        Serve.Engine.close engine)
  @@ fun () ->
  let rec connect n =
    match Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "s.sock")) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Thread.delay 0.05;
      connect (n - 1)
  in
  connect 100;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let send s =
    let n = Unix.write_substring fd s 0 (String.length s) in
    Alcotest.(check int) "sent in one write" (String.length s) n
  in
  let recv_line () =
    let line = Buffer.create 256 and b = Bytes.create 1 in
    let rec go () =
      match Unix.read fd b 0 1 with
      | 0 -> Alcotest.fail "connection closed before a reply"
      | _ when Bytes.get b 0 = '\n' -> Buffer.contents line
      | _ ->
        Buffer.add_char line (Bytes.get b 0);
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "no reply within the receive timeout"
    in
    go ()
  in
  send (String.make 100 'x');
  (match decode_reply (recv_line ()) with
   | P.Reject { code = P.Oversize; xid = None; _ } -> ()
   | other ->
     Alcotest.failf "expected an oversize reject, got %s"
       (P.encode_response other));
  send ("\n" ^ P.encode_request (P.Ping "after") ^ "\n");
  match decode_reply (recv_line ()) with
  | P.Pong id -> Alcotest.(check string) "ping answered" "after" id
  | other ->
    Alcotest.failf "expected a pong, got %s" (P.encode_response other)

let test_reject_oversize_program () =
  let e = mk_engine ~max_program_size:3 () in
  let items =
    List.init 5 (fun i ->
        Tcsim.Program.I
          { pc = M.pf0_cached_base + (4 * i); kind = Tcsim.Program.Compute 1 })
  in
  ignore
    (expect_reject e ~id:"big" P.Oversize
       (analyze_line
          {
            P.id = "big";
            scenario = "scenario1";
            app = P.App_inline { P.pname = "big"; pitems = items };
            contenders = [];
            models = [ P.Ftc ];
            observed = false;
            trace = None;
          }))

let test_reject_lint () =
  let e = mk_engine () in
  let rejects_before = metric "serve.rejects" in
  let _, diagnostics =
    expect_reject e ~id:"lint-reject-1" P.Lint (analyze_line lint_reject_query)
  in
  Alcotest.(check bool) "carries diagnostics" true (List.length diagnostics > 0);
  Alcotest.(check bool)
    "address-unmapped diagnosed" true
    (List.exists
       (fun (d : Analysis.Diag.t) -> d.rule = "address-unmapped")
       diagnostics);
  Alcotest.(check int)
    "serve.rejects counted" (rejects_before + 1) (metric "serve.rejects")

let test_control_ops () =
  let e = mk_engine () in
  (match decode_reply (reply_of e (P.encode_request (P.Ping "p7"))) with
   | P.Pong id -> Alcotest.(check string) "pong echoes id" "p7" id
   | _ -> Alcotest.fail "expected pong");
  (match decode_reply (reply_of e (P.encode_request (P.Stats_req "s1"))) with
   | P.Stats_reply { sid; stats; payload } ->
     Alcotest.(check string) "stats echoes id" "s1" sid;
     Alcotest.(check bool)
       "stats carries served" true
       (List.mem_assoc "served" stats);
     Alcotest.(check bool)
       "v2 stats carries a payload" true
       (payload <> J.Null)
   | _ -> Alcotest.fail "expected stats");
  (match decode_reply (reply_of e (P.encode_request (P.Metrics_req "m1"))) with
   | P.Metrics_reply { metrics = J.Obj _; _ } -> ()
   | _ -> Alcotest.fail "expected a metrics object");
  match Serve.Engine.handle_line e (P.encode_request (P.Shutdown "bye")) with
  | `Stop line ->
    (match decode_reply line with
     | P.Shutdown_ack id -> Alcotest.(check string) "ack echoes id" "bye" id
     | _ -> Alcotest.fail "expected shutdown ack")
  | `Reply _ -> Alcotest.fail "shutdown must stop the server"

(* --- disk tier: fault injection ----------------------------------------- *)

let key_a = String.make 32 'a'
let key_b = String.make 32 'b'

let test_disk_roundtrip () =
  with_tmpdir @@ fun dir ->
  let d = Serve.Disk_cache.open_ ~root:dir () in
  Alcotest.(check (option string)) "miss on empty" None
    (Serve.Disk_cache.load d ~ns:"t" ~key:key_a);
  Serve.Disk_cache.store d ~ns:"t" ~key:key_a "{\"x\": 1}";
  Alcotest.(check (option string))
    "load returns the stored value" (Some "{\"x\": 1}")
    (Serve.Disk_cache.load d ~ns:"t" ~key:key_a);
  (* non-hex keys are refused outright *)
  Alcotest.(check (option string)) "non-hex key rejected" None
    (Serve.Disk_cache.load d ~ns:"t" ~key:"../../etc/passwd")

let corrupt_with f () =
  with_tmpdir @@ fun dir ->
  let d = Serve.Disk_cache.open_ ~root:dir () in
  Serve.Disk_cache.store d ~ns:"t" ~key:key_b "payload-payload-payload";
  let path = Serve.Disk_cache.path d ~ns:"t" ~key:key_b in
  f path;
  let corrupt_before = metric "serve.disk.corrupt" in
  Alcotest.(check (option string)) "corrupt entry refused" None
    (Serve.Disk_cache.load d ~ns:"t" ~key:key_b);
  Alcotest.(check int)
    "serve.disk.corrupt counted" (corrupt_before + 1)
    (metric "serve.disk.corrupt");
  Alcotest.(check bool) "entry quarantined away" false (Sys.file_exists path);
  let q = Serve.Disk_cache.quarantine_dir d in
  Alcotest.(check bool)
    "quarantine holds the bad file" true
    (Sys.file_exists q && Array.length (Sys.readdir q) = 1);
  (* recompute-and-rewrite works after quarantine *)
  Serve.Disk_cache.store d ~ns:"t" ~key:key_b "recomputed";
  Alcotest.(check (option string))
    "rewrite after quarantine" (Some "recomputed")
    (Serve.Disk_cache.load d ~ns:"t" ~key:key_b)

let truncate_file path =
  let n = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (n / 2);
  Unix.close fd

let zero_file path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  Unix.close fd

let bitflip_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* --- disk tier: engine integration -------------------------------------- *)

(* "Restart": a fresh engine over the same disk root, with the
   process-wide runtime caches dropped — everything a new process would
   not have. *)
let restart_engine ?(persist = false) dir =
  Runtime.Run_cache.clear ();
  Runtime.Solve_cache.clear ();
  mk_engine ~disk:(Serve.Disk_cache.open_ ~root:dir ()) ~persist ()

let with_engine e f = Fun.protect ~finally:(fun () -> Serve.Engine.close e) f

let test_cold_start_warmup () =
  with_tmpdir @@ fun dir ->
  let line = analyze_line golden_query in
  let e1 = restart_engine dir in
  let first =
    with_engine e1 @@ fun () -> reply_of e1 line
  in
  let r1 = result_of_reply first in
  Alcotest.(check string)
    "first serve computes" "computed"
    (P.provenance_to_string r1.rcache);
  (* second process: same disk root, cold memory *)
  let e2 = restart_engine dir in
  let second = with_engine e2 @@ fun () -> reply_of e2 line in
  let r2 = result_of_reply second in
  Alcotest.(check string)
    "restart serves from disk" "disk"
    (P.provenance_to_string r2.rcache);
  Alcotest.(check string)
    "results byte-identical across restart" (result_bytes first)
    (result_bytes second)

let test_corrupt_query_entry_recomputed () =
  with_tmpdir @@ fun dir ->
  let line = analyze_line golden_query in
  let e1 = restart_engine dir in
  let first = with_engine e1 @@ fun () -> reply_of e1 line in
  let d = Serve.Disk_cache.open_ ~root:dir () in
  let qpath =
    Serve.Disk_cache.path d ~ns:"query" ~key:(Serve.Engine.digest golden_query)
  in
  Alcotest.(check bool) "query entry persisted" true (Sys.file_exists qpath);
  truncate_file qpath;
  let e2 = restart_engine dir in
  let second = with_engine e2 @@ fun () -> reply_of e2 line in
  let r2 = result_of_reply second in
  Alcotest.(check string)
    "corrupt entry recomputed" "computed"
    (P.provenance_to_string r2.rcache);
  Alcotest.(check string)
    "recomputed result identical" (result_bytes first) (result_bytes second)

(* A disk tier written while the query digest hashed the v1 wire
   rendering: the poisoned entry under the golden query's old address is
   never served; the query is computed and saved under its current
   address. *)
let test_v1_query_entry_never_served () =
  with_tmpdir @@ fun dir ->
  let d = Serve.Disk_cache.open_ ~root:dir () in
  let poisoned =
    match golden_response with
    | P.Result { result; _ } -> result
    | _ -> assert false
  in
  Serve.Disk_cache.store d ~ns:"query" ~key:v1_query_digest
    (J.to_string (P.result_to_json poisoned));
  let e = restart_engine dir in
  let r =
    with_engine e @@ fun () ->
    result_of_reply (reply_of e (analyze_line golden_query))
  in
  Alcotest.(check string)
    "computed, not the v1 entry" "computed"
    (P.provenance_to_string r.rcache);
  Alcotest.(check bool)
    "poisoned result not served" false (r.rresult = poisoned);
  Alcotest.(check bool)
    "saved under the current address" true
    (Sys.file_exists
       (Serve.Disk_cache.path d ~ns:"query" ~key:expected_query_digest))

let test_runtime_caches_replay_from_disk () =
  with_tmpdir @@ fun dir ->
  let line = analyze_line golden_query in
  let e1 = restart_engine ~persist:true dir in
  let first = with_engine e1 @@ fun () -> reply_of e1 line in
  (* drop the query-level entry so the restarted engine recomputes the
     pipeline — its simulations and solves should replay from the
     run/solve namespaces instead of simulating *)
  let d = Serve.Disk_cache.open_ ~root:dir () in
  Sys.remove
    (Serve.Disk_cache.path d ~ns:"query" ~key:(Serve.Engine.digest golden_query));
  let hits_before = metric "serve.disk.hits" in
  let e2 = restart_engine ~persist:true dir in
  let second = with_engine e2 @@ fun () -> reply_of e2 line in
  let r2 = result_of_reply second in
  Alcotest.(check string)
    "pipeline re-ran" "computed"
    (P.provenance_to_string r2.rcache);
  Alcotest.(check bool)
    "simulations/solves replayed from disk" true
    (metric "serve.disk.hits" > hits_before);
  Alcotest.(check string)
    "replayed result identical" (result_bytes first) (result_bytes second)

(* --- audit: certificates through the persistent tier ---------------------- *)

(* a small branching ILP, so the persisted certificate exercises the
   search-tree format, not just an LP leaf *)
let audit_model () =
  let q = Numeric.Q.of_int in
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~integer:true ~ub:(q 3) "x" in
  let y = Ilp.Model.add_var m ~integer:true ~ub:(q 3) "y" in
  Ilp.Model.add_constraint m
    (Ilp.Linexpr.of_terms [ (q 3, x); (q 2, y) ])
    Ilp.Model.Le (q 7);
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linexpr.of_terms [ (q 2, x); (Numeric.Q.one, y) ]);
  m

(* Installs a disk-backed solve store (recording what it persists) with
   audit mode on; always restores the process-wide state afterwards. *)
let with_certified_store dir f =
  let d = Serve.Disk_cache.open_ ~root:dir () in
  let saved = ref [] in
  let store =
    {
      Runtime.Solve_cache.load =
        (fun key -> Serve.Disk_cache.load d ~ns:"solve" ~key);
      save =
        (fun key value ->
           saved := (key, value) :: !saved;
           Serve.Disk_cache.store d ~ns:"solve" ~key value);
      reject = (fun key -> Serve.Disk_cache.reject d ~ns:"solve" ~key);
    }
  in
  Runtime.Solve_cache.clear ();
  Runtime.Solve_cache.set_store (Some store);
  Runtime.Solve_cache.set_audit true;
  Fun.protect
    ~finally:(fun () ->
        Runtime.Solve_cache.set_audit false;
        Runtime.Solve_cache.set_store None;
        Runtime.Solve_cache.clear ())
    (fun () -> f d saved)

let the_saved_entry saved =
  match !saved with
  | [ kv ] -> kv
  | l -> Alcotest.failf "expected exactly one persisted entry, got %d" (List.length l)

let test_cert_roundtrip_through_disk () =
  with_tmpdir @@ fun dir ->
  with_certified_store dir @@ fun _d saved ->
  let verified0 = metric "audit.verified" in
  let o1 = Runtime.Solve_cache.(solve_ilp (prepare (audit_model ()))) in
  Alcotest.(check int)
    "fresh solve audited" (verified0 + 1) (metric "audit.verified");
  let _, entry = the_saved_entry saved in
  (match Runtime.Solve_cache.entry_decode entry with
   | Some (Runtime.Solve_cache.Solved _, Some _) -> ()
   | Some (_, None) -> Alcotest.fail "persisted entry carries no certificate"
   | _ -> Alcotest.failf "persisted entry undecodable: %s" entry);
  (* "restart": cold memory, warm disk — the entry must be re-audited on
     load before it is served *)
  Runtime.Solve_cache.clear ();
  let corrupt0 = metric "serve.disk.corrupt" in
  let o2 = Runtime.Solve_cache.(solve_ilp (prepare (audit_model ()))) in
  Alcotest.(check bool)
    "answers identical across restart" true (Ilp.Solution.equal o1 o2);
  Alcotest.(check int)
    "disk load re-audited" (verified0 + 2) (metric "audit.verified");
  Alcotest.(check int)
    "no quarantine on a clean load" corrupt0 (metric "serve.disk.corrupt")

let test_tampered_cert_quarantined () =
  with_tmpdir @@ fun dir ->
  with_certified_store dir @@ fun d saved ->
  let o1 = Runtime.Solve_cache.(solve_ilp (prepare (audit_model ()))) in
  let key, entry = the_saved_entry saved in
  let outcome, cert =
    match Runtime.Solve_cache.entry_decode entry with
    | Some (o, Some c) -> (o, c)
    | _ -> Alcotest.fail "expected a certified entry"
  in
  let tampered =
    match outcome with
    | Runtime.Solve_cache.Solved (Ilp.Solution.Optimal { objective; values }) ->
      Runtime.Solve_cache.entry_to_string ~cert
        (Runtime.Solve_cache.Solved
           (Ilp.Solution.Optimal
              { objective = Numeric.Q.add objective Numeric.Q.one; values }))
    | _ -> Alcotest.fail "expected an optimal outcome"
  in
  (* a checksum-valid write of the tampered entry: the tier below cannot
     catch this — only the certificate audit can *)
  Serve.Disk_cache.store d ~ns:"solve" ~key tampered;
  Runtime.Solve_cache.clear ();
  let corrupt0 = metric "serve.disk.corrupt"
  and failed0 = metric "audit.failed" in
  let o2 = Runtime.Solve_cache.(solve_ilp (prepare (audit_model ()))) in
  Alcotest.(check bool)
    "tamper did not leak into the answer" true (Ilp.Solution.equal o1 o2);
  Alcotest.(check int)
    "audit.failed counted" (failed0 + 1) (metric "audit.failed");
  Alcotest.(check int)
    "quarantined like a corruption" (corrupt0 + 1) (metric "serve.disk.corrupt");
  let qdir = Serve.Disk_cache.quarantine_dir d in
  Alcotest.(check bool)
    "tampered file held in quarantine" true
    (Sys.file_exists qdir && Array.length (Sys.readdir qdir) >= 1);
  (* a recovered-from tamper is not solver-bug evidence *)
  Alcotest.(check bool)
    "no solver-bug failures recorded" true
    (Runtime.Solve_cache.audit_failures () = [])

let test_certless_entry_upgraded () =
  with_tmpdir @@ fun dir ->
  with_certified_store dir @@ fun d saved ->
  let o1 = Runtime.Solve_cache.(solve_ilp (prepare (audit_model ()))) in
  let key, entry = the_saved_entry saved in
  (* downgrade the stored entry to the certificate-less v1 format, as a
     pre-audit producer would have written it *)
  let v1 =
    match Runtime.Solve_cache.entry_of_string entry with
    | Some o -> Runtime.Solve_cache.entry_to_string o
    | None -> Alcotest.failf "entry undecodable: %s" entry
  in
  Serve.Disk_cache.store d ~ns:"solve" ~key v1;
  Runtime.Solve_cache.clear ();
  saved := [];
  let o2 = Runtime.Solve_cache.(solve_ilp (prepare (audit_model ()))) in
  Alcotest.(check bool)
    "upgrade preserves the answer" true (Ilp.Solution.equal o1 o2);
  (* recomputed through the certified path and re-persisted with a cert *)
  match Runtime.Solve_cache.entry_decode (snd (the_saved_entry saved)) with
  | Some (_, Some _) -> ()
  | _ -> Alcotest.fail "certless entry was not upgraded to a certified one"

(* --- observability: introspection payload, tracing ------------------------ *)

let stats_payload_of e =
  match decode_reply (reply_of e (P.encode_request (P.Stats_req "sp"))) with
  | P.Stats_reply { payload; _ } -> payload
  | other ->
    Alcotest.failf "expected stats, got %s" (P.encode_response other)

let test_stats_payload_content () =
  let e = mk_engine () in
  with_engine e @@ fun () ->
  ignore (reply_of e (analyze_line { golden_query with P.id = "sp1" }));
  ignore (expect_reject e ~id:"sp2" P.Invalid
            (analyze_line { golden_query with P.id = "sp2"; scenario = "nope" }));
  let payload = stats_payload_of e in
  List.iter
    (fun k ->
       Alcotest.(check bool)
         (Printf.sprintf "payload has %S" k)
         true
         (J.member k payload <> None))
    [ "uptime_s"; "in_flight"; "engine"; "caches"; "audit"; "stages";
      "recent_rejects"; "prometheus" ];
  (* the analyze above filled every per-stage histogram *)
  (match J.member "stages" payload with
   | Some (J.Obj stages) ->
     List.iter
       (fun k ->
          match List.assoc_opt k stages with
          | Some h ->
            Alcotest.(check bool)
              (Printf.sprintf "%s observed at least once" k)
              true
              (match J.member "count" h with
               | Some (J.Int n) -> n >= 1
               | _ -> false)
          | None -> Alcotest.failf "missing stage histogram %S" k)
       [ "serve.latency_s"; "serve.stage.lint_s"; "serve.stage.isolation_s";
         "serve.stage.bounds_s"; "serve.stage.corun_s" ]
   | _ -> Alcotest.fail "stages is not an object");
  (* the engine section mirrors the flat counters *)
  (match J.member "engine" payload with
   | Some engine ->
     Alcotest.(check bool)
       "one computed query" true
       (J.member "computed" engine = Some (J.Int 1))
   | None -> Alcotest.fail "no engine section");
  (* the reject above is the newest recent reject *)
  (match J.member "recent_rejects" payload with
   | Some (J.List (newest :: _)) ->
     Alcotest.(check bool)
       "recent reject carries the id" true
       (J.member "id" newest = Some (J.Str "sp2"));
     Alcotest.(check bool)
       "recent reject carries the code" true
       (J.member "code" newest = Some (J.Str "invalid"))
   | _ -> Alcotest.fail "recent_rejects empty or malformed");
  (* the Prometheus exposition is well-formed text with our prefix *)
  match J.member "prometheus" payload with
  | Some (J.Str s) ->
    Alcotest.(check bool)
      "exposition starts with a TYPE comment" true
      (String.length s > 6 && String.sub s 0 6 = "# TYPE");
    let has sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      "counters exported under the aurix_ prefix" true
      (has "aurix_serve_requests");
    Alcotest.(check bool)
      "histograms exported with cumulative buckets" true
      (has "aurix_serve_latency_s_bucket{le=\"+Inf\"}")
  | _ -> Alcotest.fail "prometheus section is not a string"

(* The daemon adopts the requester's trace id: every span and cache
   instant of the handling — including those recorded inside pool
   workers — carries it. *)
let test_trace_adoption () =
  Obs.Tracer.enable ();
  Fun.protect ~finally:(fun () -> Obs.Tracer.disable ()) @@ fun () ->
  let e = mk_engine ~jobs:2 () in
  with_engine e @@ fun () ->
  let sref = { P.trace_id = "deadbeef"; parent_span = "cafe" } in
  ignore
    (reply_of e
       (analyze_line { golden_query with P.id = "traced"; trace = Some sref }));
  let evs = Obs.Tracer.events () in
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (Printf.sprintf "%s joined the trace" name)
         true
         (List.exists
            (fun (ev : Obs.Tracer.event) ->
               ev.name = name && ev.trace = "deadbeef")
            evs))
    [ "serve.request"; "serve.stage.lint"; "serve.stage.isolation";
      "serve.stage.bounds"; "serve.stage.corun"; "cache.query.computed" ];
  (* the serve.request span records the client's parent span id *)
  Alcotest.(check bool)
    "serve.request carries the parent span ref" true
    (List.exists
       (fun (ev : Obs.Tracer.event) ->
          ev.name = "serve.request"
          && List.assoc_opt "parent" ev.attrs = Some "cafe")
       evs);
  (* an untraced request records spans without any trace id *)
  Obs.Tracer.clear ();
  ignore (reply_of e (analyze_line { golden_query with P.id = "untraced" }));
  Alcotest.(check bool)
    "untraced spans carry no trace id" true
    (List.for_all
       (fun (ev : Obs.Tracer.event) -> ev.trace = "")
       (Obs.Tracer.events ()))

(* --- concurrency: socket hammer ------------------------------------------ *)

let distinct_queries =
  List.concat_map
    (fun scenario ->
       List.map
         (fun level ->
            {
              P.id = "";
              scenario;
              app = P.App_bundled;
              contenders = [ P.Con_level { level; core = 1 } ];
              models = [ P.Ftc; P.Ilp_ptac; P.Ideal ];
              observed = true;
              trace = None;
            })
         Workload.Load_gen.[ High; Low ])
    [ "scenario1"; "scenario2" ]

(* The jobs-invariant payload sections: identical after serving the same
   query multiset at jobs=1 and jobs=4. Cumulative process-wide numbers
   (disk counters, run/solve hits) are compared as deltas. *)
let test_stats_payload_jobs_invariance () =
  let view jobs =
    Runtime.Run_cache.clear ();
    Runtime.Solve_cache.clear ();
    let e = mk_engine ~jobs () in
    with_engine e @@ fun () ->
    let sc0 = Runtime.Solve_cache.stats () in
    let rc0 = Runtime.Run_cache.stats () in
    List.iter
      (fun q -> ignore (reply_of e (analyze_line { q with P.id = "inv" })))
      distinct_queries;
    let payload = stats_payload_of e in
    let sc1 = Runtime.Solve_cache.stats () in
    let rc1 = Runtime.Run_cache.stats () in
    let section name =
      match J.member name payload with
      | Some s -> J.to_string s
      | None -> Alcotest.failf "payload has no %S section" name
    in
    ( section "engine",
      (match J.member "caches" payload with
       | Some c ->
         (match J.member "query" c with
          | Some q -> J.to_string q
          | None -> Alcotest.fail "no query cache section")
       | None -> Alcotest.fail "no caches section"),
      ( rc1.Runtime.Run_cache.hits - rc0.Runtime.Run_cache.hits,
        rc1.Runtime.Run_cache.misses - rc0.Runtime.Run_cache.misses,
        sc1.Runtime.Solve_cache.hits - sc0.Runtime.Solve_cache.hits,
        sc1.Runtime.Solve_cache.misses - sc0.Runtime.Solve_cache.misses,
        Runtime.Run_cache.size (),
        Runtime.Solve_cache.size () ) )
  in
  let e1, q1, c1 = view 1 in
  let e4, q4, c4 = view 4 in
  Alcotest.(check string) "engine section invariant" e1 e4;
  Alcotest.(check string) "query cache section invariant" q1 q4;
  let pp (a, b, c, d, e, f) =
    Printf.sprintf "run %d/%d solve %d/%d sizes %d/%d" a b c d e f
  in
  Alcotest.(check string) "cache deltas invariant" (pp c1) (pp c4)

(* The server counts its live connection handlers instead of keeping
   every handler's thread: a few hundred sequential connections, one
   open at a time, leave the count at 0 after each one and after stop. *)
let test_live_handlers_return_to_zero () =
  with_tmpdir @@ fun dir ->
  let addr = Serve.Server.Unix_path (Filename.concat dir "s.sock") in
  let engine = mk_engine () in
  let live = Obs.Metrics.gauge ~timing:true "serve.connections.live" in
  let base = Obs.Metrics.gauge_value live in
  let stop = Atomic.make false in
  let server =
    Thread.create (fun () -> Serve.Server.serve ~engine ~addr ~stop ()) ()
  in
  Fun.protect
    ~finally:(fun () ->
        if not (Atomic.get stop) then begin
          Atomic.set stop true;
          Thread.join server
        end;
        Serve.Engine.close engine)
  @@ fun () ->
  (* a handler ends once it has read its client's end of input *)
  let settled () =
    let rec wait n =
      Obs.Metrics.gauge_value live = base
      || (n > 0 && (Thread.delay 0.002; wait (n - 1)))
    in
    wait 2500
  in
  for i = 1 to 300 do
    let c = Serve.Client.connect addr in
    let id = string_of_int i in
    (match Serve.Client.rpc c (P.Ping id) with
     | Ok (P.Pong got) -> Alcotest.(check string) "ping answered" id got
     | Ok other -> Alcotest.failf "expected a pong, got %s" (P.encode_response other)
     | Error e -> Alcotest.failf "connection %d: %s" i e);
    Alcotest.(check int) "one live handler while connected" (base + 1)
      (Obs.Metrics.gauge_value live);
    Serve.Client.close c;
    if not (settled ()) then Alcotest.failf "connection %d: handler still live" i
  done;
  Atomic.set stop true;
  Thread.join server;
  Alcotest.(check int) "none live after stop" base (Obs.Metrics.gauge_value live);
  Alcotest.(check int) "serve.connections.live is 0" 0 base

let hammer ~jobs =
  with_tmpdir @@ fun dir ->
  let addr = Serve.Server.Unix_path (Filename.concat dir "s.sock") in
  let engine = mk_engine ~jobs () in
  let stop = Atomic.make false in
  let server =
    Thread.create
      (fun () -> Serve.Server.serve ~engine ~addr ~stop ())
      ()
  in
  let nclients = 8 in
  let reps = 3 in
  let results = Array.make nclients [] in
  let errors = Atomic.make 0 in
  let clients =
    List.init nclients (fun ci ->
        Thread.create
          (fun () ->
             try
               let c = Serve.Client.connect addr in
               Fun.protect
                 ~finally:(fun () -> Serve.Client.close c)
                 (fun () ->
                    for rep = 1 to reps do
                      List.iteri
                        (fun qi q ->
                           let id = Printf.sprintf "c%d-r%d-q%d" ci rep qi in
                           let line =
                             Serve.Client.rpc_line c
                               (analyze_line { q with P.id = id })
                           in
                           let r = result_of_reply line in
                           if r.rrid <> id then Atomic.incr errors
                           else
                             results.(ci) <-
                               (qi, result_bytes line) :: results.(ci))
                        distinct_queries
                    done)
             with _ -> Atomic.incr errors)
          ())
  in
  List.iter Thread.join clients;
  Atomic.set stop true;
  Thread.join server;
  let stats = Serve.Engine.stats engine in
  Serve.Engine.close engine;
  Alcotest.(check int) "no client errors" 0 (Atomic.get errors);
  (* correlation held; now single-flight: every duplicate was a hit *)
  Alcotest.(check int)
    "distinct queries computed once each"
    (List.length distinct_queries)
    stats.Serve.Engine.computed;
  Alcotest.(check int)
    "everything else memory hits"
    ((nclients * reps * List.length distinct_queries)
     - List.length distinct_queries)
    stats.Serve.Engine.memory_hits;
  (* per-query result bytes agree across every client and repetition *)
  let by_query = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun (qi, bytes) ->
         match Hashtbl.find_opt by_query qi with
         | None -> Hashtbl.replace by_query qi bytes
         | Some b ->
           Alcotest.(check string)
             (Printf.sprintf "query %d consistent" qi)
             b bytes))
    results;
  List.mapi (fun qi _ -> Hashtbl.find by_query qi) distinct_queries

let test_hammer_and_jobs_invariance () =
  let at1 = hammer ~jobs:1 in
  let at4 = hammer ~jobs:4 in
  List.iteri
    (fun qi (b1, b4) ->
       Alcotest.(check string)
         (Printf.sprintf "query %d byte-identical at jobs=1 and jobs=4" qi)
         b1 b4)
    (List.combine at1 at4);
  (* and identical to a direct in-process engine call, no socket *)
  let e = mk_engine () in
  List.iteri
    (fun qi (q, expected) ->
       let line = reply_of e (analyze_line { q with P.id = "direct" }) in
       Alcotest.(check string)
         (Printf.sprintf "query %d matches the direct library call" qi)
         expected (result_bytes line))
    (List.combine distinct_queries at1)

(* Regeneration mode: [AURIX_GEN_GOLDEN=<dir> ./test_serve.exe] rewrites
   the wire fixtures and prints the pinned digests, for use after a
   deliberate, version-bumped format change. *)
(* --- the cell pipeline: daemon vs Figure 4, degraded paths -------------- *)

(* The daemon and Figure 4 run one cell pipeline: for each bundled
   (scenario, load) query the daemon answers exactly Figure 4's row. *)
let test_daemon_matches_figure4 () =
  let e = mk_engine () in
  with_engine e @@ fun () ->
  List.iter
    (fun (row : Experiments.Figure4.row) ->
       let q =
         {
           golden_query with
           P.id = "fig4";
           scenario = row.scenario;
           contenders = [ P.Con_level { level = row.load; core = 1 } ];
         }
       in
       let r = (result_of_reply (reply_of e (analyze_line q))).rresult in
       let cell =
         Printf.sprintf "%s/%s" row.scenario
           (Workload.Load_gen.level_to_string row.load)
       in
       let check what want got =
         Alcotest.(check int) (Printf.sprintf "%s %s" cell what) want got
       in
       check "isolation_cycles" row.isolation_cycles r.P.isolation_cycles;
       check "observed_cycles" row.observed_cycles
         (Option.get r.P.observed_cycles);
       let delta m = Option.get (List.assoc m r.P.bounds) in
       check "fTC delta" row.ftc.Mbta.Wcet.contention_cycles (delta P.Ftc);
       check "ILP-PTAC delta" row.ilp.Mbta.Wcet.contention_cycles
         (delta P.Ilp_ptac);
       check "ideal delta" row.ideal_delta (delta P.Ideal))
    (Experiments.Figure4.run_all ~jobs:1 ())

(* 300 x 1M cycles of scratchpad compute: past the 200M-cycle limit in
   300 events *)
let runaway =
  {
    P.pname = "runaway";
    pitems =
      [
        Tcsim.Program.Loop
          {
            count = 300;
            body =
              [ Tcsim.Program.I { pc = M.pspr_base; kind = Tcsim.Program.Compute 1_000_000 } ];
          };
      ];
  }

let expect_message e ~id code q fmt check =
  match decode_reply (reply_of e (analyze_line q)) with
  | P.Reject { xid; code = got; message; _ } when got = code ->
    Alcotest.(check (option string)) "reject id" (Some id) xid;
    (match Scanf.sscanf message fmt check with
     | () -> ()
     | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
       Alcotest.failf "unexpected %s message %S" (P.reject_code_to_string code)
         message)
  | other ->
    Alcotest.failf "expected a %s reject, got %s" (P.reject_code_to_string code)
      (P.encode_response other)

let past_limit c =
  Alcotest.(check bool)
    (Printf.sprintf "cycle %d past the limit" c)
    true
    (c >= Tcsim.Machine.default_max_cycles)

let test_reject_cycle_limit_isolation () =
  let e = mk_engine () in
  with_engine e @@ fun () ->
  let q = { lint_reject_query with P.id = "limit"; observed = true } in
  let in_isolation label q =
    expect_message e ~id:"limit" P.Cycle_limit q
      "task %S exceeded the cycle limit in isolation (at cycle %d)%!"
      (fun l c ->
         Alcotest.(check string) "the task named" label l;
         past_limit c)
  in
  in_isolation "app" { q with P.app = P.App_inline runaway; contenders = [] };
  in_isolation "contender2"
    {
      q with
      P.contenders =
        [
          P.Con_level { level = Workload.Load_gen.Low; core = 1 };
          P.Con_inline { ccore = 2; cprogram = runaway };
        ];
    };
  (* outranks the counter lint: with the app's isolation read-out
     corrupted (stalls past its cycle count, an error in Table 4 terms),
     the query is a counter-lint reject on its own, and a cycle-limit
     reject once a contender runs away *)
  let poisoned = ref false in
  Runtime.Run_cache.clear ();
  Runtime.Run_cache.set_store
    (Some
       {
         Runtime.Run_cache.load =
           (fun _ ->
              if !poisoned then None
              else begin
                poisoned := true;
                let r =
                  Tcsim.Machine.run
                    ~analysis:
                      {
                        Tcsim.Machine.program =
                          Workload.Control_loop.app Workload.Control_loop.S1;
                        core = 0;
                      }
                    ()
                in
                let c = r.analysis.counters in
                Some
                  (Runtime.Run_cache.entry_to_string
                     (Runtime.Run_cache.Finished
                        {
                          r with
                          analysis =
                            {
                              r.analysis with
                              counters = { c with pmem_stall = c.ccnt + 1 };
                            };
                        }))
              end);
         save = (fun _ _ -> ());
       });
  Fun.protect
    ~finally:(fun () ->
        Runtime.Run_cache.set_store None;
        Runtime.Run_cache.clear ())
  @@ fun () ->
  let bundled = { q with P.contenders = [ P.Con_level { level = Workload.Load_gen.High; core = 1 } ] } in
  let _, diagnostics = expect_reject e ~id:"limit" P.Lint (analyze_line bundled) in
  Alcotest.(check (list string))
    "the corrupted read-out is diagnosed" [ "stall-exceeds-ccnt" ]
    (List.map (fun (d : Analysis.Diag.t) -> d.rule) diagnostics);
  in_isolation "contender1"
    { q with P.contenders = [ P.Con_inline { ccore = 1; cprogram = runaway } ] }

(* An app 1,000 cycles short of the limit alone: 10,000 LMU loads, then
   scratchpad compute up to the limit. A contender storing to the LMU
   delays the loads by more than that, so only the co-run runs away. *)
let test_reject_cycle_limit_corun () =
  let e = mk_engine () in
  with_engine e @@ fun () ->
  let pspr kind = Tcsim.Program.I { pc = M.pspr_base; kind } in
  let loads =
    Tcsim.Program.Loop
      { count = 10_000; body = [ pspr (Tcsim.Program.Load M.lmu_uncached_base) ] }
  in
  let alone items =
    (Tcsim.Machine.run
       ~analysis:{ Tcsim.Machine.program = Tcsim.Program.make ~name:"app" items; core = 0 }
       ())
      .cycles
  in
  let pad = Tcsim.Machine.default_max_cycles - 1_000 - alone [ loads ] in
  let items =
    [
      loads;
      Tcsim.Program.Loop
        { count = pad / 1_000_000; body = [ pspr (Tcsim.Program.Compute 1_000_000) ] };
      pspr (Tcsim.Program.Compute (pad mod 1_000_000));
    ]
  in
  Alcotest.(check bool) "the app alone stays under the limit" true
    (alone items < Tcsim.Machine.default_max_cycles);
  let store =
    {
      P.pname = "lmu-stores";
      pitems =
        [
          Tcsim.Program.Loop
            {
              count = 20_000;
              body = [ pspr (Tcsim.Program.Store (M.lmu_uncached_base + 4096)) ];
            };
        ];
    }
  in
  let q =
    {
      lint_reject_query with
      P.id = "corun-limit";
      app = P.App_inline { P.pname = "near-limit"; pitems = items };
      contenders = [ P.Con_inline { ccore = 1; cprogram = store } ];
      models = [ P.Ftc; P.Ilp_ptac; P.Ideal ];
    }
  in
  (* unobserved, the query is answered: isolations, lints and bounds pass *)
  ignore (result_of_reply (reply_of e (analyze_line q)));
  expect_message e ~id:"corun-limit" P.Cycle_limit
    { q with P.observed = true }
    "co-run exceeded the cycle limit (at cycle %d)%!" past_limit

let () =
  match Sys.getenv_opt "AURIX_GEN_GOLDEN" with
  | None -> ()
  | Some dir ->
    let write name s =
      let oc = open_out (Filename.concat dir name) in
      output_string oc (s ^ "\n");
      close_out oc
    in
    write "serve_request.json" (P.encode_request (P.Analyze golden_query));
    write "serve_response.json" (P.encode_response golden_response);
    write "serve_lint_reject.json"
      (P.encode_request (P.Analyze lint_reject_query));
    Printf.printf "query digest:    %s\n" (Serve.Engine.digest golden_query);
    Printf.printf "run fingerprint: %s\n"
      (Runtime.Run_cache.fingerprint ~config:Tcsim.Machine.default_config
         ~max_cycles:1_000_000 ~restart_contenders:false ~priorities:None
         ~trace:false ~kernel:`Event
         ~analysis:{ Tcsim.Machine.program = tiny_program; core = 0 }
         ~contenders:[]);
    Printf.printf "solve key:       %s\n"
      (Runtime.Solve_cache.canonical_key ~tag:"test"
         (Ilp.Canonical.of_model (tiny_model ())));
    exit 0

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "golden request fixture" `Quick test_golden_request;
          Alcotest.test_case "golden response fixture" `Quick test_golden_response;
          Alcotest.test_case "golden lint-reject fixture" `Quick
            test_golden_lint_reject;
          Alcotest.test_case "stats reply requires a payload" `Quick
            test_stats_reply_requires_payload;
        ] );
      ( "stable-keys",
        [
          Alcotest.test_case "query digest pinned" `Quick test_query_digest_golden;
          Alcotest.test_case "run fingerprint pinned" `Quick
            test_run_fingerprint_golden;
          Alcotest.test_case "v1 run key never consulted" `Quick
            test_v1_run_key_never_consulted;
          Alcotest.test_case "v1 query entry never served" `Slow
            test_v1_query_entry_never_served;
          Alcotest.test_case "wide run fingerprint pinned" `Quick
            test_wide_run_fingerprint_golden;
          Alcotest.test_case "solve key pinned" `Quick test_solve_key_golden;
          Alcotest.test_case "malformed keys rejected" `Quick
            test_key_of_string_rejects;
          Alcotest.test_case "run entry round-trip" `Quick test_run_entry_roundtrip;
          Alcotest.test_case "solve entry round-trip" `Quick
            test_solve_entry_roundtrip;
        ] );
      ( "admission",
        [
          Alcotest.test_case "parse errors rejected" `Quick test_reject_parse;
          Alcotest.test_case "invalid requests rejected" `Quick test_reject_invalid;
          Alcotest.test_case "oversized line rejected" `Quick
            test_reject_oversize_line;
          Alcotest.test_case "oversized line rejected while reading" `Quick
            test_reject_oversize_while_reading;
          Alcotest.test_case "oversized program rejected" `Quick
            test_reject_oversize_program;
          Alcotest.test_case "lint errors rejected with diagnostics" `Quick
            test_reject_lint;
          Alcotest.test_case "ping/stats/metrics/shutdown" `Quick test_control_ops;
        ] );
      ( "disk-tier",
        [
          Alcotest.test_case "store/load round-trip" `Quick test_disk_roundtrip;
          Alcotest.test_case "truncated entry quarantined" `Quick
            (corrupt_with truncate_file);
          Alcotest.test_case "bit-flipped entry quarantined" `Quick
            (corrupt_with bitflip_file);
          Alcotest.test_case "zero-length entry quarantined" `Quick
            (corrupt_with zero_file);
          Alcotest.test_case "cold-start warm-up across restart" `Slow
            test_cold_start_warmup;
          Alcotest.test_case "corrupt query entry recomputed" `Slow
            test_corrupt_query_entry_recomputed;
          Alcotest.test_case "runtime caches replay from disk" `Slow
            test_runtime_caches_replay_from_disk;
        ] );
      ( "audit-tier",
        [
          Alcotest.test_case "certificate round-trips through disk" `Quick
            test_cert_roundtrip_through_disk;
          Alcotest.test_case "tampered entry quarantined + recomputed" `Quick
            test_tampered_cert_quarantined;
          Alcotest.test_case "certless entry upgraded" `Quick
            test_certless_entry_upgraded;
        ] );
      ( "cell-pipeline",
        [
          Alcotest.test_case "daemon answers Figure 4's rows" `Quick
            test_daemon_matches_figure4;
          Alcotest.test_case "isolation cycle limit rejected" `Quick
            test_reject_cycle_limit_isolation;
          Alcotest.test_case "co-run cycle limit rejected" `Quick
            test_reject_cycle_limit_corun;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats payload content" `Slow
            test_stats_payload_content;
          Alcotest.test_case "daemon adopts the request trace id" `Slow
            test_trace_adoption;
          Alcotest.test_case "stats payload jobs invariance" `Slow
            test_stats_payload_jobs_invariance;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "socket hammer + jobs invariance" `Slow
            test_hammer_and_jobs_invariance;
        ] );
      ( "connections",
        [
          Alcotest.test_case "live handlers return to zero" `Slow
            test_live_handlers_return_to_zero;
        ] );
    ]
