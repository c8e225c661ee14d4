(* Offline analysis of exported Chrome traces.

   The input is what [Tracer.to_chrome_json] wrote — "X" complete events
   for spans and "i" instants, µs timestamps, trace ids in [args.trace].
   Several trace files can be merged into one analysis (client + daemon
   of the same request): each file becomes one process, and events that
   share a trace id stitch into one logical request across processes.

   Span trees are rebuilt per (process, thread) lane from interval
   containment: events sorted by start time (longest first on ties) fold
   through a stack of open spans, attaching each event to the innermost
   span that contains it. The tracer records parents after their
   children with enclosing intervals, so containment recovers exactly
   the nesting [with_span] produced. *)

type node = {
  name : string;
  ts : float; (* µs *)
  dur : float; (* µs; 0 for instants *)
  pid : int;
  tid : int;
  trace : string;
  attrs : (string * string) list;
  instant : bool;
  mutable children : node list; (* start order *)
}

type t = {
  processes : (int * string) list; (* pid -> label *)
  roots : node list;
  spans : node list; (* every span, flattened *)
  instants : node list;
}

(* --- loading ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let fail fmt = Format.kasprintf (fun m -> Error m) fmt

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let event_of_json ~pid j =
  let str name = match Json.member name j with Some (Json.Str s) -> Some s | _ -> None in
  let num name = Option.bind (Json.member name j) number in
  match (str "ph", str "name", num "ts") with
  | Some ph, Some name, Some ts when ph = "X" || ph = "i" ->
    let trace, attrs =
      match Json.member "args" j with
      | Some (Json.Obj kvs) ->
        let attrs =
          List.filter_map
            (function k, Json.Str v when k <> "trace" -> Some (k, v) | _ -> None)
            kvs
        in
        let trace =
          match List.assoc_opt "trace" kvs with
          | Some (Json.Str t) -> t
          | _ -> ""
        in
        (trace, attrs)
      | _ -> ("", [])
    in
    Some
      {
        name;
        ts;
        dur = (if ph = "X" then Option.value (num "dur") ~default:0. else 0.);
        pid;
        tid = int_of_float (Option.value (num "tid") ~default:0.);
        trace;
        attrs;
        instant = ph = "i";
        children = [];
      }
  | _ -> None (* other phases (metadata, counters) are skipped *)

let events_of_string ~pid content =
  match Json.parse content with
  | Error e -> fail "malformed trace JSON: %s" e
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.List evs) -> Ok (List.filter_map (event_of_json ~pid) evs)
    | _ -> fail "not a Chrome trace: missing \"traceEvents\" array")

(* contains a b: span [a] encloses event [b] (half-open with a little
   slack for float µs rounding). *)
let contains a b =
  let eps = 1e-6 in
  a.ts -. eps <= b.ts && b.ts +. b.dur <= a.ts +. a.dur +. eps

let build_forest events =
  let lanes = Hashtbl.create 16 in
  List.iter
    (fun e ->
       let key = (e.pid, e.tid) in
       Hashtbl.replace lanes key
         (e :: (Option.value (Hashtbl.find_opt lanes key) ~default:[])))
    events;
  let roots = ref [] in
  Hashtbl.iter
    (fun _ lane ->
       let lane =
         List.sort
           (fun a b ->
              match compare a.ts b.ts with
              | 0 -> compare b.dur a.dur (* parent (longer) first *)
              | c -> c)
           lane
       in
       let stack = ref [] in
       List.iter
         (fun e ->
            let rec unwind () =
              match !stack with
              | top :: rest when not (contains top e) ->
                stack := rest;
                unwind ()
              | _ -> ()
            in
            unwind ();
            (match !stack with
             | top :: _ -> top.children <- top.children @ [ e ]
             | [] -> roots := e :: !roots);
            if not e.instant then stack := e :: !stack)
         lane)
    lanes;
  List.sort (fun a b -> compare (a.pid, a.tid, a.ts) (b.pid, b.tid, b.ts)) !roots

let rec flatten n acc = List.fold_left (fun acc c -> flatten c acc) (n :: acc) n.children

let of_strings labelled =
  if labelled = [] then fail "no trace files"
  else
    let* per_file =
      let rec go pid = function
        | [] -> Ok []
        | (label, content) :: rest ->
          let* evs = events_of_string ~pid content in
          let* more = go (pid + 1) rest in
          Ok ((pid, label, evs) :: more)
      in
      go 1 labelled
    in
    let events = List.concat_map (fun (_, _, evs) -> evs) per_file in
    let roots = build_forest events in
    let all = List.rev (List.fold_left (fun acc r -> flatten r acc) [] roots) in
    Ok
      {
        processes = List.map (fun (pid, label, _) -> (pid, label)) per_file;
        roots;
        spans = List.filter (fun n -> not n.instant) all;
        instants = List.filter (fun n -> n.instant) all;
      }

let of_string ?(label = "trace") content = of_strings [ (label, content) ]

(* --- stage classification ------------------------------------------------ *)

(* First matching prefix wins; the span-name inventory lives in the
   instrumented modules (experiment drivers, cell stages, engine stages,
   ilp, tcsim, measurement, pool). *)
let stage_prefixes =
  [
    ("figure4", "experiments");
    ("ablations", "experiments");
    ("integration", "experiments");
    ("cell.programs", "workload");
    ("cell.measure", "sim");
    ("cell.bounds", "solve");
    ("cell", "lint");
    ("serve.stage.lint", "lint");
    ("lint", "lint");
    ("serve.stage.bounds", "solve");
    ("ilp", "solve");
    ("solve", "solve");
    ("audit", "audit");
    ("serve.stage.isolation", "sim");
    ("serve.stage.corun", "sim");
    ("tcsim", "sim");
    ("measure", "sim");
    ("disk", "disk");
    ("cache", "cache");
    ("serve", "serve");
    ("client", "client");
    ("pool", "pool");
  ]

let stage_of_name name =
  let matches p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  match List.find_opt (fun (p, _) -> matches p) stage_prefixes with
  | Some (_, stage) -> stage
  | None -> "other"

let self_us n =
  let child_spans = List.filter (fun c -> not c.instant) n.children in
  let covered = List.fold_left (fun acc c -> acc +. c.dur) 0. child_spans in
  Float.max 0. (n.dur -. covered)

(* --- per-span-name table and stages --------------------------------------- *)

type span_stat = {
  span_name : string;
  calls : int;
  total_us : float;
  span_self_us : float;
}

let span_table t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
       let calls, total, self =
         Option.value (Hashtbl.find_opt tbl n.name) ~default:(0, 0., 0.)
       in
       Hashtbl.replace tbl n.name (calls + 1, total +. n.dur, self +. self_us n))
    t.spans;
  Hashtbl.fold
    (fun span_name (calls, total_us, span_self_us) acc ->
       { span_name; calls; total_us; span_self_us } :: acc)
    tbl []
  |> List.sort (fun a b ->
      match Float.compare b.span_self_us a.span_self_us with
      | 0 -> String.compare a.span_name b.span_name
      | c -> c)

type stage_stat = {
  stage : string;
  stage_spans : int;
  stage_self_us : float; (* span time net of child spans: sums to wall *)
}

(* A stage is a function of the span name, so its totals are sums of
   span-table rows. *)
let stages t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let stage = stage_of_name s.span_name in
       let spans, self =
         Option.value (Hashtbl.find_opt tbl stage) ~default:(0, 0.)
       in
       Hashtbl.replace tbl stage (spans + s.calls, self +. s.span_self_us))
    (span_table t);
  Hashtbl.fold
    (fun stage (stage_spans, stage_self_us) acc ->
       { stage; stage_spans; stage_self_us } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.stage_self_us a.stage_self_us)

(* --- critical path ------------------------------------------------------- *)

(* Down the slowest child at every level of the slowest root. *)
let critical_path t =
  let slowest nodes =
    List.fold_left
      (fun acc n ->
         match acc with
         | Some best when best.dur >= n.dur -> acc
         | _ -> if n.instant then acc else Some n)
      None nodes
  in
  let rec walk n acc =
    match slowest n.children with
    | Some c -> walk c (n :: acc)
    | None -> List.rev (n :: acc)
  in
  match slowest t.roots with None -> [] | Some r -> walk r []

(* --- requests ------------------------------------------------------------ *)

let requests t =
  List.filter (fun n -> n.name = "serve.request" || n.name = "client.rpc") t.spans
  |> List.sort (fun a b -> compare b.dur a.dur)

(* --- cache effectiveness ------------------------------------------------- *)

type cache_stat = {
  cache : string;
  outcomes : (string * int) list; (* outcome -> count, sorted *)
  hit_rate : float option; (* None when no hit/miss outcomes at all *)
}

let cache_key name =
  (* "cache.<c>.<outcome>" and "disk.<outcome>" instants *)
  match String.split_on_char '.' name with
  | "cache" :: c :: rest when rest <> [] -> Some (c, String.concat "." rest)
  | "disk" :: rest when rest <> [] -> Some ("disk", String.concat "." rest)
  | _ -> None

let caches t =
  let tbl : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun n ->
       match cache_key n.name with
       | None -> ()
       | Some (cache, outcome) ->
         let inner =
           match Hashtbl.find_opt tbl cache with
           | Some h -> h
           | None ->
             let h = Hashtbl.create 4 in
             Hashtbl.add tbl cache h;
             h
         in
         Hashtbl.replace inner outcome
           (1 + Option.value (Hashtbl.find_opt inner outcome) ~default:0))
    t.instants;
  Hashtbl.fold
    (fun cache inner acc ->
       let outcomes =
         Hashtbl.fold (fun o n l -> (o, n) :: l) inner []
         |> List.sort (fun (a, _) (b, _) -> String.compare a b)
       in
       let count_where pred =
         List.fold_left
           (fun acc (o, n) -> if pred o then acc + n else acc)
           0 outcomes
       in
       let is_sub needle hay =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       let hits = count_where (is_sub "hit") in
       let misses =
         count_where (fun o -> is_sub "miss" o || o = "computed")
       in
       let hit_rate =
         if hits + misses = 0 then None
         else Some (float_of_int hits /. float_of_int (hits + misses))
       in
       { cache; outcomes; hit_rate } :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.cache b.cache)

(* --- traces -------------------------------------------------------------- *)

type trace_stat = {
  trace_id : string;
  pids : int list; (* processes this trace id appears in *)
  trace_spans : int;
  trace_total_us : float; (* summed root-of-trace span time *)
}

let traces t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
       if n.trace <> "" then begin
         let pids, spans =
           Option.value (Hashtbl.find_opt tbl n.trace) ~default:([], 0)
         in
         let pids = if List.mem n.pid pids then pids else n.pid :: pids in
         Hashtbl.replace tbl n.trace (pids, spans + 1)
       end)
    t.spans;
  (* a span is a trace root when no parent of it shares the trace id;
     approximate with: count only maximal spans per trace, i.e. spans
     whose duration is not contained in another same-trace span time.
     Simpler and good enough for reporting: sum per-trace self time. *)
  let self_tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
       if n.trace <> "" then
         Hashtbl.replace self_tbl n.trace
           (self_us n
            +. Option.value (Hashtbl.find_opt self_tbl n.trace) ~default:0.))
    t.spans;
  Hashtbl.fold
    (fun trace_id (pids, trace_spans) acc ->
       {
         trace_id;
         pids = List.sort compare pids;
         trace_spans;
         trace_total_us =
           Option.value (Hashtbl.find_opt self_tbl trace_id) ~default:0.;
       }
       :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.trace_total_us a.trace_total_us)

(* --- simulator work -------------------------------------------------------- *)

type sim_work = { sim_runs : int; sim_events : int; sim_skipped_events : int }

(* Summed from the [events] / [skipped_events] attributes of [tcsim.run]
   spans. *)
let sim_work t =
  let attr n k = Option.fold ~none:0 ~some:int_of_string (List.assoc_opt k n.attrs) in
  match List.filter (fun n -> n.name = "tcsim.run") t.spans with
  | [] -> None
  | runs ->
    Some
      (List.fold_left
         (fun w n ->
            {
              sim_runs = w.sim_runs + 1;
              sim_events = w.sim_events + attr n "events";
              sim_skipped_events = w.sim_skipped_events + attr n "skipped_events";
            })
         { sim_runs = 0; sim_events = 0; sim_skipped_events = 0 }
         runs)

(* --- report -------------------------------------------------------------- *)

let ms us = us /. 1e3

let pp_node_line fmt ~indent n =
  let label =
    match List.assoc_opt "op" n.attrs with
    | Some op -> Printf.sprintf "%s[%s]" n.name op
    | None -> n.name
  in
  Format.fprintf fmt "%s%s  %.3f ms (self %.3f ms)@,"
    (String.make indent ' ') label (ms n.dur) (ms (self_us n))

let report ?(top = 5) fmt t =
  Format.fprintf fmt "@[<v>";
  let total_self =
    List.fold_left (fun acc n -> acc +. self_us n) 0. t.spans
  in
  Format.fprintf fmt "processes: %s@,"
    (String.concat ", "
       (List.map (fun (pid, l) -> Printf.sprintf "%d=%s" pid l) t.processes));
  Format.fprintf fmt "spans: %d  instants: %d  span time: %.3f ms@,@,"
    (List.length t.spans) (List.length t.instants) (ms total_self);
  (* stage breakdown *)
  Format.fprintf fmt "stage breakdown (self time):@,";
  Format.fprintf fmt "  %-12s %8s %12s %7s@," "stage" "spans" "total" "share";
  List.iter
    (fun s ->
       Format.fprintf fmt "  %-12s %8d %10.3fms %6.1f%%@," s.stage s.stage_spans
         (ms s.stage_self_us)
         (if total_self > 0. then 100. *. s.stage_self_us /. total_self else 0.))
    (stages t);
  Format.fprintf fmt "@,spans by name (self time):@,";
  Format.fprintf fmt "  %-24s %8s %12s %12s %7s@," "span" "calls" "total" "self"
    "share";
  List.iter
    (fun s ->
       Format.fprintf fmt "  %-24s %8d %10.3fms %10.3fms %6.1f%%@," s.span_name
         s.calls (ms s.total_us) (ms s.span_self_us)
         (if total_self > 0. then 100. *. s.span_self_us /. total_self else 0.))
    (span_table t);
  (* critical path *)
  (match critical_path t with
   | [] -> Format.fprintf fmt "@,critical path: (no spans)@,"
   | path ->
     Format.fprintf fmt "@,critical path:@,";
     List.iteri (fun i n -> pp_node_line fmt ~indent:(2 + (2 * i)) n) path);
  (* slowest requests *)
  (match requests t with
   | [] -> ()
   | reqs ->
     Format.fprintf fmt "@,slowest requests (top %d of %d):@," top
       (List.length reqs);
     List.iteri
       (fun i n ->
          if i < top then begin
            let tr = if n.trace = "" then "-" else n.trace in
            Format.fprintf fmt "  %-14s %10.3fms  trace=%s@," n.name (ms n.dur)
              tr
          end)
       reqs);
  (* cache effectiveness *)
  (match caches t with
   | [] -> ()
   | cs ->
     Format.fprintf fmt "@,cache effectiveness:@,";
     List.iter
       (fun c ->
          let outcomes =
            String.concat " "
              (List.map (fun (o, n) -> Printf.sprintf "%s=%d" o n) c.outcomes)
          in
          match c.hit_rate with
          | Some r ->
            Format.fprintf fmt "  %-8s %s  hit rate %.1f%%@," c.cache outcomes
              (100. *. r)
          | None -> Format.fprintf fmt "  %-8s %s@," c.cache outcomes)
       cs);
  Option.iter
    (fun w ->
       Format.fprintf fmt
         "@,simulator work: runs=%d  tcsim.events=%d  tcsim.solo.skipped_events=%d@,"
         w.sim_runs w.sim_events w.sim_skipped_events)
    (sim_work t);
  (* traces *)
  (match traces t with
   | [] -> ()
   | ts ->
     Format.fprintf fmt "@,traces (top %d of %d):@," top (List.length ts);
     List.iteri
       (fun i tr ->
          if i < top then
            Format.fprintf fmt "  %s  spans=%d  processes=[%s]  %.3f ms@,"
              tr.trace_id tr.trace_spans
              (String.concat "," (List.map string_of_int tr.pids))
              (ms tr.trace_total_us))
       ts);
  Format.fprintf fmt "@]"

let report_string ?top t = Format.asprintf "%a" (fun fmt () -> report ?top fmt t) ()

(* --- JSON ---------------------------------------------------------------- *)

let to_json ?(top = 5) t =
  let take n l = List.filteri (fun i _ -> i < n) l in
  Json.Obj
    [
      ( "processes",
        Json.Obj
          (List.map (fun (pid, l) -> (string_of_int pid, Json.Str l)) t.processes)
      );
      ("spans", Json.Int (List.length t.spans));
      ("instants", Json.Int (List.length t.instants));
      ( "stages",
        Json.Obj
          (List.map
             (fun s ->
                ( s.stage,
                  Json.Obj
                    [
                      ("spans", Json.Int s.stage_spans);
                      ("self_us", Json.Float s.stage_self_us);
                    ] ))
             (stages t)) );
      ( "span_table",
        Json.List
          (List.map
             (fun s ->
                Json.Obj
                  [
                    ("name", Json.Str s.span_name);
                    ("calls", Json.Int s.calls);
                    ("total_us", Json.Float s.total_us);
                    ("self_us", Json.Float s.span_self_us);
                  ])
             (span_table t)) );
      ( "critical_path",
        Json.List
          (List.map
             (fun n ->
                Json.Obj
                  [
                    ("name", Json.Str n.name);
                    ("dur_us", Json.Float n.dur);
                    ("self_us", Json.Float (self_us n));
                  ])
             (critical_path t)) );
      ( "slowest_requests",
        Json.List
          (List.map
             (fun n ->
                Json.Obj
                  [
                    ("name", Json.Str n.name);
                    ("dur_us", Json.Float n.dur);
                    ("trace", Json.Str n.trace);
                  ])
             (take top (requests t))) );
      ( "sim_work",
        match sim_work t with
        | None -> Json.Null
        | Some w ->
          Json.Obj
            [
              ("runs", Json.Int w.sim_runs);
              ("tcsim.events", Json.Int w.sim_events);
              ("tcsim.solo.skipped_events", Json.Int w.sim_skipped_events);
            ] );
      ( "caches",
        Json.Obj
          (List.map
             (fun c ->
                ( c.cache,
                  Json.Obj
                    (List.map (fun (o, n) -> (o, Json.Int n)) c.outcomes
                     @
                     match c.hit_rate with
                     | None -> []
                     | Some r -> [ ("hit_rate", Json.Float r) ]) ))
             (caches t)) );
      ( "traces",
        Json.List
          (List.map
             (fun tr ->
                Json.Obj
                  [
                    ("id", Json.Str tr.trace_id);
                    ("spans", Json.Int tr.trace_spans);
                    ( "processes",
                      Json.List (List.map (fun p -> Json.Int p) tr.pids) );
                    ("total_us", Json.Float tr.trace_total_us);
                  ])
             (take top (traces t))) );
    ]
