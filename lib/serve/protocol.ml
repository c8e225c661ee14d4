module J = Obs.Json

(* The one wire version. A line carrying any other ["v"] is refused
   with an error that names it. *)
let version = 2

(* --- request types ------------------------------------------------------ *)

type model = Ideal | Ftc | Ilp_ptac

let model_to_string = function
  | Ideal -> "ideal"
  | Ftc -> "ftc"
  | Ilp_ptac -> "ilp-ptac"

let model_of_string = function
  | "ideal" -> Some Ideal
  | "ftc" -> Some Ftc
  | "ilp-ptac" -> Some Ilp_ptac
  | _ -> None

type program_spec = { pname : string; pitems : Tcsim.Program.item list }

type app_spec = App_bundled | App_inline of program_spec

type contender_spec =
  | Con_level of { level : Workload.Load_gen.level; core : int }
  | Con_inline of { ccore : int; cprogram : program_spec }

type span_ref = { trace_id : string; parent_span : string }

type analyze = {
  id : string;
  scenario : string;
  app : app_spec;
  contenders : contender_spec list;
  models : model list;
  observed : bool;
  trace : span_ref option;
}

type request =
  | Analyze of analyze
  | Ping of string
  | Metrics_req of string
  | Stats_req of string
  | Shutdown of string

(* --- response types ----------------------------------------------------- *)

type provenance = Computed | Memory | Disk

let provenance_to_string = function
  | Computed -> "computed"
  | Memory -> "memory"
  | Disk -> "disk"

let provenance_of_string = function
  | "computed" -> Some Computed
  | "memory" -> Some Memory
  | "disk" -> Some Disk
  | _ -> None

type analyze_result = {
  isolation_cycles : int;
  observed_cycles : int option;
  bounds : (model * int option) list;
  app_counters : Platform.Counters.t;
  contender_counters : (int * Platform.Counters.t) list;
}

type reject_code = Parse | Invalid | Oversize | Lint | Cycle_limit | Internal

let reject_code_to_string = function
  | Parse -> "parse"
  | Invalid -> "invalid"
  | Oversize -> "oversize"
  | Lint -> "lint"
  | Cycle_limit -> "cycle-limit"
  | Internal -> "internal"

let reject_code_of_string = function
  | "parse" -> Some Parse
  | "invalid" -> Some Invalid
  | "oversize" -> Some Oversize
  | "lint" -> Some Lint
  | "cycle-limit" -> Some Cycle_limit
  | "internal" -> Some Internal
  | _ -> None

type response =
  | Result of {
      rid : string;
      cache : provenance;
      wall_us : int;
      result : analyze_result;
    }
  | Reject of {
      xid : string option;
      code : reject_code;
      message : string;
      diagnostics : Analysis.Diag.t list;
    }
  | Pong of string
  | Metrics_reply of { mid : string; metrics : J.t }
  | Stats_reply of { sid : string; stats : (string * int) list; payload : J.t }
  | Shutdown_ack of string

(* --- encoding ----------------------------------------------------------- *)

let rec json_of_item (item : Tcsim.Program.item) =
  match item with
  | Tcsim.Program.I { pc; kind = Tcsim.Program.Compute n } ->
    J.Obj [ ("pc", J.Int pc); ("i", J.Str "c"); ("n", J.Int n) ]
  | Tcsim.Program.I { pc; kind = Tcsim.Program.Load addr } ->
    J.Obj [ ("pc", J.Int pc); ("i", J.Str "l"); ("addr", J.Int addr) ]
  | Tcsim.Program.I { pc; kind = Tcsim.Program.Store addr } ->
    J.Obj [ ("pc", J.Int pc); ("i", J.Str "s"); ("addr", J.Int addr) ]
  | Tcsim.Program.Loop { count; body } ->
    J.Obj [ ("loop", J.Int count); ("body", J.List (List.map json_of_item body)) ]

let json_of_program { pname; pitems } =
  J.Obj [ ("name", J.Str pname); ("items", J.List (List.map json_of_item pitems)) ]

let json_of_app = function
  | App_bundled -> J.Str "bundled"
  | App_inline p -> json_of_program p

let json_of_contender = function
  | Con_level { level; core } ->
    J.Obj
      [
        ( "level",
          J.Str (String.lowercase_ascii
                   (match level with
                    | Workload.Load_gen.High -> "high"
                    | Medium -> "medium"
                    | Low -> "low")) );
        ("core", J.Int core);
      ]
  | Con_inline { ccore; cprogram } ->
    J.Obj [ ("core", J.Int ccore); ("program", json_of_program cprogram) ]

let json_of_counters (c : Platform.Counters.t) =
  J.Obj
    [
      ("ccnt", J.Int c.ccnt);
      ("pmem_stall", J.Int c.pmem_stall);
      ("dmem_stall", J.Int c.dmem_stall);
      ("pcache_miss", J.Int c.pcache_miss);
      ("dcache_miss_clean", J.Int c.dcache_miss_clean);
      ("dcache_miss_dirty", J.Int c.dcache_miss_dirty);
    ]

let result_to_json r =
  J.Obj
    [
      ("isolation_cycles", J.Int r.isolation_cycles);
      ( "observed_cycles",
        match r.observed_cycles with None -> J.Null | Some c -> J.Int c );
      ( "bounds",
        J.Obj
          (List.map
             (fun (m, b) ->
                ( model_to_string m,
                  match b with None -> J.Null | Some d -> J.Int d ))
             r.bounds) );
      ("app_counters", json_of_counters r.app_counters);
      ( "contender_counters",
        J.List
          (List.map
             (fun (core, c) ->
                J.Obj [ ("core", J.Int core); ("counters", json_of_counters c) ])
             r.contender_counters) );
    ]

let json_of_diag (d : Analysis.Diag.t) =
  J.Obj
    [
      ("severity", J.Str (Analysis.Diag.severity_to_string d.severity));
      ("rule", J.Str d.rule);
      ("path", J.List (List.map (fun p -> J.Str p) d.path));
      ("message", J.Str d.message);
      ("equation", match d.equation with None -> J.Null | Some e -> J.Str e);
    ]

let json_of_span_ref { trace_id; parent_span } =
  J.Obj [ ("id", J.Str trace_id); ("parent", J.Str parent_span) ]

let request_to_json = function
  | Ping id -> J.Obj [ ("v", J.Int version); ("op", J.Str "ping"); ("id", J.Str id) ]
  | Metrics_req id ->
    J.Obj [ ("v", J.Int version); ("op", J.Str "metrics"); ("id", J.Str id) ]
  | Stats_req id ->
    J.Obj [ ("v", J.Int version); ("op", J.Str "stats"); ("id", J.Str id) ]
  | Shutdown id ->
    J.Obj [ ("v", J.Int version); ("op", J.Str "shutdown"); ("id", J.Str id) ]
  | Analyze q ->
    J.Obj
      ([
        ("v", J.Int version);
        ("op", J.Str "analyze");
        ("id", J.Str q.id);
        ("scenario", J.Str q.scenario);
        ("app", json_of_app q.app);
        ("contenders", J.List (List.map json_of_contender q.contenders));
        ( "models",
          J.List (List.map (fun m -> J.Str (model_to_string m)) q.models) );
        ("observed", J.Bool q.observed);
      ]
       @
       match q.trace with
       | Some t -> [ ("trace", json_of_span_ref t) ]
       | None -> [])

let encode_request r = J.to_string (request_to_json r)

let response_to_json = function
  | Result { rid; cache; wall_us; result } ->
    J.Obj
      [
        ("v", J.Int version);
        ("op", J.Str "result");
        ("status", J.Str "ok");
        ("id", J.Str rid);
        ("cache", J.Str (provenance_to_string cache));
        ("wall_us", J.Int wall_us);
        ("result", result_to_json result);
      ]
  | Reject { xid; code; message; diagnostics } ->
    J.Obj
      ([ ("v", J.Int version); ("op", J.Str "error"); ("status", J.Str "error") ]
       @ (match xid with None -> [] | Some id -> [ ("id", J.Str id) ])
       @ [
         ("code", J.Str (reject_code_to_string code));
         ("message", J.Str message);
         ("diagnostics", J.List (List.map json_of_diag diagnostics));
       ])
  | Pong id ->
    J.Obj
      [ ("v", J.Int version); ("op", J.Str "pong"); ("status", J.Str "ok");
        ("id", J.Str id) ]
  | Metrics_reply { mid; metrics } ->
    J.Obj
      [ ("v", J.Int version); ("op", J.Str "metrics"); ("status", J.Str "ok");
        ("id", J.Str mid); ("metrics", metrics) ]
  | Stats_reply { sid; stats; payload } ->
    J.Obj
      [ ("v", J.Int version); ("op", J.Str "stats"); ("status", J.Str "ok");
        ("id", J.Str sid);
        ("stats", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) stats));
        ("payload", payload) ]
  | Shutdown_ack id ->
    J.Obj
      [ ("v", J.Int version); ("op", J.Str "shutdown"); ("status", J.Str "ok");
        ("id", J.Str id) ]

let encode_response r = J.to_string (response_to_json r)

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let fail fmt = Format.kasprintf (fun m -> Error m) fmt

let int_field name j =
  match J.member name j with
  | Some (J.Int i) -> Ok i
  | _ -> fail "missing or non-integer field %S" name

let str_field name j =
  match J.member name j with
  | Some (J.Str s) -> Ok s
  | _ -> fail "missing or non-string field %S" name

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> Ok b
  | _ -> fail "missing or non-boolean field %S" name

let list_field name j =
  match J.member name j with
  | Some (J.List l) -> Ok l
  | _ -> fail "missing or non-array field %S" name

let obj_field name j =
  match J.member name j with
  | Some (J.Obj kvs) -> Ok kvs
  | _ -> fail "missing or non-object field %S" name

let rec map_r f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_r f rest in
    Ok (y :: ys)

let rec item_of_json j =
  match J.member "loop" j with
  | Some (J.Int count) ->
    let* body = list_field "body" j in
    let* body = map_r item_of_json body in
    Ok (Tcsim.Program.Loop { count; body })
  | Some _ -> fail "non-integer loop count"
  | None ->
    let* pc = int_field "pc" j in
    let* i = str_field "i" j in
    (match i with
     | "c" ->
       let* n = int_field "n" j in
       Ok (Tcsim.Program.I { pc; kind = Tcsim.Program.Compute n })
     | "l" ->
       let* addr = int_field "addr" j in
       Ok (Tcsim.Program.I { pc; kind = Tcsim.Program.Load addr })
     | "s" ->
       let* addr = int_field "addr" j in
       Ok (Tcsim.Program.I { pc; kind = Tcsim.Program.Store addr })
     | other -> fail "unknown instruction kind %S" other)

let program_of_json j =
  let* pname = str_field "name" j in
  let* items = list_field "items" j in
  let* pitems = map_r item_of_json items in
  Ok { pname; pitems }

let app_of_json = function
  | J.Str "bundled" -> Ok App_bundled
  | J.Obj _ as j ->
    let* p = program_of_json j in
    Ok (App_inline p)
  | _ -> fail "field \"app\" must be \"bundled\" or a program object"

let contender_of_json j =
  match J.member "program" j with
  | Some pj ->
    let* ccore = int_field "core" j in
    let* cprogram = program_of_json pj in
    Ok (Con_inline { ccore; cprogram })
  | None ->
    let* level = str_field "level" j in
    let* core = int_field "core" j in
    (match Workload.Load_gen.level_of_string level with
     | Some level -> Ok (Con_level { level; core })
     | None -> fail "unknown load level %S" level)

let counters_of_json j =
  let* ccnt = int_field "ccnt" j in
  let* pmem_stall = int_field "pmem_stall" j in
  let* dmem_stall = int_field "dmem_stall" j in
  let* pcache_miss = int_field "pcache_miss" j in
  let* dcache_miss_clean = int_field "dcache_miss_clean" j in
  let* dcache_miss_dirty = int_field "dcache_miss_dirty" j in
  Ok
    {
      Platform.Counters.ccnt;
      pmem_stall;
      dmem_stall;
      pcache_miss;
      dcache_miss_clean;
      dcache_miss_dirty;
    }

let result_of_json_r j =
  let* isolation_cycles = int_field "isolation_cycles" j in
  let* observed_cycles =
    match J.member "observed_cycles" j with
    | Some J.Null -> Ok None
    | Some (J.Int c) -> Ok (Some c)
    | _ -> fail "missing or malformed field \"observed_cycles\""
  in
  let* bounds = obj_field "bounds" j in
  let* bounds =
    map_r
      (fun (k, v) ->
         match (model_of_string k, v) with
         | Some m, J.Null -> Ok (m, None)
         | Some m, J.Int d -> Ok (m, Some d)
         | None, _ -> fail "unknown model %S in bounds" k
         | Some _, _ -> fail "malformed bound for model %S" k)
      bounds
  in
  let* app_counters =
    let* cj =
      match J.member "app_counters" j with
      | Some c -> Ok c
      | None -> fail "missing field \"app_counters\""
    in
    counters_of_json cj
  in
  let* contender_counters =
    let* l = list_field "contender_counters" j in
    map_r
      (fun cj ->
         let* core = int_field "core" cj in
         let* c =
           match J.member "counters" cj with
           | Some c -> counters_of_json c
           | None -> fail "missing field \"counters\""
         in
         Ok (core, c))
      l
  in
  Ok
    { isolation_cycles; observed_cycles; bounds; app_counters; contender_counters }

let result_of_json j = Result.to_option (result_of_json_r j)

let diag_of_json j =
  let* severity = str_field "severity" j in
  let* severity =
    match severity with
    | "error" -> Ok Analysis.Diag.Error
    | "warning" -> Ok Analysis.Diag.Warning
    | "info" -> Ok Analysis.Diag.Info
    | other -> fail "unknown severity %S" other
  in
  let* rule = str_field "rule" j in
  let* path = list_field "path" j in
  let* path =
    map_r (function J.Str s -> Ok s | _ -> fail "non-string path segment") path
  in
  let* message = str_field "message" j in
  let* equation =
    match J.member "equation" j with
    | Some J.Null | None -> Ok None
    | Some (J.Str e) -> Ok (Some e)
    | _ -> fail "malformed field \"equation\""
  in
  Ok { Analysis.Diag.severity; rule; path; message; equation }

let span_ref_of_json j =
  let* trace_id = str_field "id" j in
  let* parent_span = str_field "parent" j in
  Ok { trace_id; parent_span }

let parse_line line =
  match J.parse line with
  | Error e -> fail "malformed JSON: %s" e
  | Ok j ->
    let* v = int_field "v" j in
    if v <> version then fail "unsupported protocol version %d" v
    else
      let* op = str_field "op" j in
      Ok (op, j)

let decode_request line =
  let* op, j = parse_line line in
  match op with
  | "ping" ->
    let* id = str_field "id" j in
    Ok (Ping id)
  | "metrics" ->
    let* id = str_field "id" j in
    Ok (Metrics_req id)
  | "stats" ->
    let* id = str_field "id" j in
    Ok (Stats_req id)
  | "shutdown" ->
    let* id = str_field "id" j in
    Ok (Shutdown id)
  | "analyze" ->
    let* id = str_field "id" j in
    let* scenario = str_field "scenario" j in
    let* app =
      match J.member "app" j with
      | Some a -> app_of_json a
      | None -> fail "missing field \"app\""
    in
    let* contenders = list_field "contenders" j in
    let* contenders = map_r contender_of_json contenders in
    let* models = list_field "models" j in
    let* models =
      map_r
        (function
          | J.Str s ->
            (match model_of_string s with
             | Some m -> Ok m
             | None -> fail "unknown model %S" s)
          | _ -> fail "non-string model name")
        models
    in
    let* observed = bool_field "observed" j in
    let* trace =
      match J.member "trace" j with
      | None | Some J.Null -> Ok None
      | Some tj ->
        let* t = span_ref_of_json tj in
        Ok (Some t)
    in
    Ok (Analyze { id; scenario; app; contenders; models; observed; trace })
  | other -> fail "unknown request op %S" other

let decode_response line =
  let* op, j = parse_line line in
  match op with
  | "pong" ->
    let* id = str_field "id" j in
    Ok (Pong id)
  | "shutdown" ->
    let* id = str_field "id" j in
    Ok (Shutdown_ack id)
  | "metrics" ->
    let* mid = str_field "id" j in
    let* metrics =
      match J.member "metrics" j with
      | Some m -> Ok m
      | None -> fail "missing field \"metrics\""
    in
    Ok (Metrics_reply { mid; metrics })
  | "stats" ->
    let* sid = str_field "id" j in
    let* stats = obj_field "stats" j in
    let* stats =
      map_r
        (function
          | (k, J.Int v) -> Ok (k, v)
          | (k, _) -> fail "non-integer stat %S" k)
        stats
    in
    let* payload =
      match J.member "payload" j with
      | Some p -> Ok p
      | None -> fail "missing field \"payload\""
    in
    Ok (Stats_reply { sid; stats; payload })
  | "result" ->
    let* rid = str_field "id" j in
    let* cache = str_field "cache" j in
    let* cache =
      match provenance_of_string cache with
      | Some p -> Ok p
      | None -> fail "unknown cache provenance %S" cache
    in
    let* wall_us = int_field "wall_us" j in
    let* result =
      match J.member "result" j with
      | Some r -> result_of_json_r r
      | None -> fail "missing field \"result\""
    in
    Ok (Result { rid; cache; wall_us; result })
  | "error" ->
    let xid =
      match J.member "id" j with Some (J.Str id) -> Some id | _ -> None
    in
    let* code = str_field "code" j in
    let* code =
      match reject_code_of_string code with
      | Some c -> Ok c
      | None -> fail "unknown reject code %S" code
    in
    let* message = str_field "message" j in
    let* diagnostics = list_field "diagnostics" j in
    let* diagnostics = map_r diag_of_json diagnostics in
    Ok (Reject { xid; code; message; diagnostics })
  | other -> fail "unknown response op %S" other
