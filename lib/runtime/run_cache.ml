(* Content-addressed memoization of whole simulator runs.

   Experiments re-simulate identical (task, contenders, platform) tuples
   many times — every ablation re-measures the figure-4 co-runs, the
   portability sweep replays Table 2 per variant — so whole-run results
   are keyed by a structural digest of everything {!Tcsim.Machine.run}'s
   outcome depends on: the resolved kernel, the latency table, per-core
   configurations, priorities, the restart/max_cycles/trace flags, and
   the analysis + contender programs (by {!Tcsim.Program.digest}, not by
   name) in their literal order (stepping order is architecturally
   visible through same-cycle arbitration).

   Single-flight ({!Single_flight}): the first requester of a key
   simulates; concurrent requesters block until the outcome lands and
   count as hits. Hit/miss totals are therefore a function of the
   request multiset alone — identical at any parallel degree — which
   keeps the run_cache.* Obs counters inside the deterministic snapshot.
   [run_result] is immutable all the way down, so sharing one value
   between requesters is safe. *)

open Tcsim

type outcome = Finished of Machine.run_result | Limit of int

type stats = { hits : int; misses : int; waited : int }

let table : outcome Single_flight.t =
  Single_flight.create ~entries:(Obs.Metrics.gauge "run_cache.entries") ()

let hit_count = Atomic.make 0
let miss_count = Atomic.make 0
let waited_count = Atomic.make 0
let m_hits = Obs.Metrics.counter "run_cache.hits"
let m_misses = Obs.Metrics.counter "run_cache.misses"

(* --- fingerprint ------------------------------------------------------- *)

(* Bumped whenever [fingerprint] changes what it hashes; hashed into
   every key as its first field, so keys of different versions never
   coincide. v2 keys a program by its {!Program.digest} instead of v1's
   decimal rendering of its items. *)
let key_format_version = 2

let add_dec buf n = Buffer.add_string buf (string_of_int n)

(* the ints as [%d/%d/...;] *)
let add_fields buf ns =
  List.iteri
    (fun i n ->
       if i > 0 then Buffer.add_char buf '/';
       add_dec buf n)
    ns;
  Buffer.add_char buf ';'

let add_geometry buf = function
  | None -> Buffer.add_string buf "-;"
  | Some g ->
    add_fields buf [ g.Cache.size_bytes; g.Cache.ways; g.Cache.line_bytes ]

let add_core_config buf (c : Core_model.config) =
  Buffer.add_string buf
    (match c.Core_model.kind with Core_model.P16 -> "P" | Core_model.E16 -> "E");
  add_geometry buf c.Core_model.icache;
  add_geometry buf c.Core_model.dcache

let add_latency buf lat =
  List.iter
    (fun (target, op) ->
       add_fields buf
         [
           Platform.Latency.lmax lat target op;
           Platform.Latency.lmin lat target op;
           Platform.Latency.min_stall lat target op;
         ])
    Platform.Op.valid_pairs;
  Buffer.add_char buf '~';
  add_fields buf [ Platform.Latency.lmu_dirty_lmax lat ]

(* A program is keyed by its content digest (names are irrelevant to
   timing), taken once per program: a key costs O(tasks), not O(program
   size). The digest is 16 bytes, so the next ['#'] cannot be misread. *)
let add_task buf (t : Machine.task) =
  Buffer.add_char buf '#';
  add_dec buf t.Machine.core;
  Buffer.add_char buf ':';
  Buffer.add_string buf (Program.digest t.Machine.program)

let fingerprint ~config ~max_cycles ~restart_contenders ~priorities ~trace
    ~kernel ~analysis ~contenders =
  let buf = Buffer.create 256 in
  List.iter
    (fun field ->
       Buffer.add_string buf field;
       Buffer.add_char buf '|')
    [
      string_of_int key_format_version;
      Machine.kernel_to_string kernel;
      string_of_int max_cycles;
      string_of_bool restart_contenders;
      string_of_bool trace;
    ];
  (match priorities with
   | None -> Buffer.add_string buf "-|"
   | Some p ->
     Array.iter
       (fun n ->
          add_dec buf n;
          Buffer.add_char buf ',')
       p;
     Buffer.add_char buf '|');
  add_latency buf config.Machine.latency;
  Buffer.add_char buf '|';
  Array.iter (add_core_config buf) config.Machine.cores;
  Buffer.add_char buf '|';
  add_task buf analysis;
  List.iter (add_task buf) contenders;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- stable key/entry serialization ------------------------------------- *)

(* The persistent disk tier stores settled outcomes under their
   fingerprint. Both directions are versioned: keys carry
   [key_format_version], so an entry stored under another version's key
   is never looked up again (it reads as a miss), and [entry_of_string]
   refuses anything it does not recognise (the tier then recomputes).
   The golden tests pin both versions together with sample digests, so a
   refactor that would silently invalidate on-disk caches fails a test
   instead. *)

let entry_format_version = 1

let is_key s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let key_to_string k = k

let key_of_string s = if is_key s then Some s else None

module J = Obs.Json

let json_of_counters (c : Platform.Counters.t) =
  J.Obj
    [
      ("ccnt", J.Int c.Platform.Counters.ccnt);
      ("pmem_stall", J.Int c.Platform.Counters.pmem_stall);
      ("dmem_stall", J.Int c.Platform.Counters.dmem_stall);
      ("pcache_miss", J.Int c.Platform.Counters.pcache_miss);
      ("dcache_miss_clean", J.Int c.Platform.Counters.dcache_miss_clean);
      ("dcache_miss_dirty", J.Int c.Platform.Counters.dcache_miss_dirty);
    ]

let json_of_profile p =
  J.List
    (List.rev
       (Platform.Access_profile.fold
          (fun t o n acc ->
             J.List
               [
                 J.Str (Platform.Target.to_string t);
                 J.Str (Platform.Op.to_string o);
                 J.Int n;
               ]
             :: acc)
          p []))

let json_of_core_result (c : Machine.core_result) =
  J.Obj
    [
      ("counters", json_of_counters c.Machine.counters);
      ("profile", json_of_profile c.Machine.profile);
      ("restarts", J.Int c.Machine.restarts);
    ]

let json_of_event (e : Trace.event) =
  J.List
    [
      J.Int e.Trace.issue_cycle;
      J.Int e.Trace.grant_cycle;
      J.Int e.Trace.complete_cycle;
      J.Int e.Trace.core;
      J.Str (Platform.Target.to_string e.Trace.target);
      J.Str (Platform.Op.to_string e.Trace.op);
      J.Int e.Trace.service;
      J.Int e.Trace.waited;
    ]

let entry_to_string = function
  | Finished (r : Machine.run_result) ->
    J.to_string
      (J.Obj
         [
           ("v", J.Int entry_format_version);
           ("outcome", J.Str "finished");
           ("cycles", J.Int r.Machine.cycles);
           ("analysis", json_of_core_result r.Machine.analysis);
           ( "contenders",
             J.List
               (List.map
                  (fun (core, c) ->
                     J.Obj
                       [
                         ("core", J.Int core);
                         ("result", json_of_core_result c);
                       ])
                  r.Machine.contenders) );
           ("trace", J.List (List.map json_of_event r.Machine.trace));
         ])
  | Limit c ->
    J.to_string
      (J.Obj
         [
           ("v", J.Int entry_format_version);
           ("outcome", J.Str "limit");
           ("cycles", J.Int c);
         ])

(* Parsing is all-or-nothing: any structural surprise yields [None] and
   the tier recomputes. *)
let ( let* ) = Option.bind

let int_field j k =
  match J.member k j with Some (J.Int i) -> Some i | _ -> None

let str_field j k =
  match J.member k j with Some (J.Str s) -> Some s | _ -> None

let list_field j k =
  match J.member k j with Some (J.List xs) -> Some xs | _ -> None

let counters_of_json j =
  let* ccnt = int_field j "ccnt" in
  let* pmem_stall = int_field j "pmem_stall" in
  let* dmem_stall = int_field j "dmem_stall" in
  let* pcache_miss = int_field j "pcache_miss" in
  let* dcache_miss_clean = int_field j "dcache_miss_clean" in
  let* dcache_miss_dirty = int_field j "dcache_miss_dirty" in
  Some
    {
      Platform.Counters.ccnt;
      pmem_stall;
      dmem_stall;
      pcache_miss;
      dcache_miss_clean;
      dcache_miss_dirty;
    }

let profile_of_json items =
  let rec pairs acc = function
    | [] ->
      (match Platform.Access_profile.make (List.rev acc) with
       | p -> Some p
       | exception Invalid_argument _ -> None)
    | J.List [ J.Str t; J.Str o; J.Int n ] :: rest ->
      let* target = Platform.Target.of_string t in
      let* op = Platform.Op.of_string o in
      pairs (((target, op), n) :: acc) rest
    | _ -> None
  in
  pairs [] items

let core_result_of_json j =
  let* counters = Option.bind (J.member "counters" j) counters_of_json in
  let* profile = Option.bind (list_field j "profile") profile_of_json in
  let* restarts = int_field j "restarts" in
  Some { Machine.counters; profile; restarts }

let event_of_json = function
  | J.List
      [
        J.Int issue_cycle;
        J.Int grant_cycle;
        J.Int complete_cycle;
        J.Int core;
        J.Str target;
        J.Str op;
        J.Int service;
        J.Int waited;
      ] ->
    let* target = Platform.Target.of_string target in
    let* op = Platform.Op.of_string op in
    Some
      {
        Trace.issue_cycle;
        grant_cycle;
        complete_cycle;
        core;
        target;
        op;
        service;
        waited;
      }
  | _ -> None

let rec map_opt f = function
  | [] -> Some []
  | x :: rest ->
    let* y = f x in
    let* ys = map_opt f rest in
    Some (y :: ys)

let entry_of_string s =
  match J.parse s with
  | Error _ -> None
  | Ok j ->
    let* v = int_field j "v" in
    if v <> entry_format_version then None
    else
      let* outcome = str_field j "outcome" in
      (match outcome with
       | "limit" ->
         let* c = int_field j "cycles" in
         Some (Limit c)
       | "finished" ->
         let* cycles = int_field j "cycles" in
         let* analysis =
           Option.bind (J.member "analysis" j) core_result_of_json
         in
         let* contenders =
           Option.bind (list_field j "contenders")
             (map_opt (fun cj ->
                  let* core = int_field cj "core" in
                  let* r =
                    Option.bind (J.member "result" cj) core_result_of_json
                  in
                  Some (core, r)))
         in
         let* trace = Option.bind (list_field j "trace") (map_opt event_of_json) in
         Some (Finished { Machine.cycles; analysis; contenders; trace })
       | _ -> None)

(* --- persistent backing store ------------------------------------------- *)

(* An optional second tier behind the in-memory table (the serve daemon
   installs its disk cache here). Consulted only inside the single-flight
   [`Reserved] path, so hit/miss accounting of the memory tier — and its
   jobs-invariance — is unchanged: a store hit still counts as a memory
   miss. *)
type store = {
  load : string -> string option;
  save : string -> string -> unit;
}

let store_ref : store option Atomic.t = Atomic.make None

let set_store s = Atomic.set store_ref s

let store_load k =
  match Atomic.get store_ref with
  | None -> None
  | Some s -> (
    match s.load k with
    | None -> None
    | Some data -> entry_of_string data
    | exception _ -> None)

let store_save k o =
  match Atomic.get store_ref with
  | None -> ()
  | Some s -> ( try s.save k (entry_to_string o) with _ -> ())

let size () = Single_flight.size table

let replay = function
  | Finished r -> r
  | Limit c -> raise (Machine.Cycle_limit_exceeded c)

let hit k o ~waited =
  Atomic.incr hit_count;
  Obs.Metrics.incr m_hits;
  Obs.Tracer.instant "cache.run.hit" ~attrs:(fun () -> [ ("key", k) ]);
  if waited then Atomic.incr waited_count;
  replay o

(* The [`Reserved] path: consult the second tier, then simulate with
   [sim] and settle the key with whatever happened. *)
let miss k ~sim =
  Atomic.incr miss_count;
  Obs.Metrics.incr m_misses;
  Obs.Tracer.instant "cache.run.miss" ~attrs:(fun () -> [ ("key", k) ]);
  match store_load k with
  | Some o ->
    (* second-tier hit: install the persisted outcome without
       simulating; still a miss of the memory tier *)
    Single_flight.settle table k o;
    replay o
  | None ->
    let o =
      match sim () with
      | r -> Finished r
      | exception Machine.Cycle_limit_exceeded c ->
        (* deterministic for this key (max_cycles is part of it): cache
           the outcome so hit/miss totals stay jobs-invariant *)
        Limit c
      | exception e ->
        (* uncached failure (e.g. validation error): release the key *)
        Single_flight.fail table k;
        raise e
    in
    Single_flight.settle table k o;
    store_save k o;
    replay o

let run ?(config = Machine.default_config)
    ?(max_cycles = Machine.default_max_cycles) ?(restart_contenders = true)
    ?priorities ?(trace = false) ?kernel ~analysis ?(contenders = []) () =
  let kernel =
    match kernel with Some k -> k | None -> Machine.default_kernel ()
  in
  let k =
    fingerprint ~config ~max_cycles ~restart_contenders ~priorities ~trace
      ~kernel ~analysis ~contenders
  in
  match Single_flight.acquire table k with
  | `Hit (o, waited) -> hit k o ~waited
  | `Reserved ->
    miss k ~sim:(fun () ->
        Machine.run ~config ~max_cycles ~restart_contenders ?priorities ~trace
          ~kernel ~analysis ~contenders ())

let run_isolation ?config ?max_cycles ?kernel ?(core = 0) program =
  run ?config ?max_cycles ?kernel ~analysis:{ Machine.program; core } ()

let stats () =
  {
    hits = Atomic.get hit_count;
    misses = Atomic.get miss_count;
    waited = Atomic.get waited_count;
  }

let reset_stats () =
  Atomic.set hit_count 0;
  Atomic.set miss_count 0;
  Atomic.set waited_count 0

let clear () =
  Single_flight.clear table;
  Machine.clear_scripts ();
  reset_stats ()
