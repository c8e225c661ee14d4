(* Process-wide metrics registry. One flat namespace: a name is bound to
   exactly one metric for the lifetime of the process; re-registering
   under the same name returns the existing instance (and insists on the
   same kind), so instrumented modules can create their handles at
   top-level init in any order.

   Counters and gauges are single atomic ints — safe to update from any
   Pool worker without locks. Histograms take a per-histogram mutex:
   their observations are timing data recorded at task granularity, so
   the lock is never contended at a rate that matters. *)

type counter = int Atomic.t
type gauge = int Atomic.t

type hist = {
  edges : float array; (* strictly increasing inclusive upper bounds *)
  counts : int array; (* length edges + 1; last slot = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_lock : Mutex.t;
}

type histogram = hist

type metric = MCounter of counter | MGauge of gauge | MHist of hist

(* [timing] marks a counter/gauge as a host-timing fact (script-memo
   hits, solo-skipped events): kept out of {!deterministic_snapshot}
   like histograms are, because its value legitimately varies with the
   parallel degree or the cache state.
   The flag is fixed by the first registration of a name. *)
type entry = { metric : metric; timing : bool }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()

let register ?(timing = false) name make extract =
  Mutex.lock reg_lock;
  let e =
    match Hashtbl.find_opt registry name with
    | Some e -> e
    | None ->
      let e = { metric = make (); timing } in
      Hashtbl.add registry name e;
      e
  in
  Mutex.unlock reg_lock;
  match extract e.metric with
  | Some h -> h
  | None ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is already registered with another kind"
         name)

let counter ?timing name =
  register ?timing name
    (fun () -> MCounter (Atomic.make 0))
    (function MCounter c -> Some c | _ -> None)

let gauge ?timing name =
  register ?timing name
    (fun () -> MGauge (Atomic.make 0))
    (function MGauge g -> Some g | _ -> None)

let histogram ~buckets name =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket edges";
  for i = 1 to n - 1 do
    if buckets.(i - 1) >= buckets.(i) then
      invalid_arg "Metrics.histogram: bucket edges must be strictly increasing"
  done;
  register name
    (fun () ->
       MHist
         {
           edges = Array.copy buckets;
           counts = Array.make (n + 1) 0;
           h_count = 0;
           h_sum = 0.;
           h_min = infinity;
           h_max = neg_infinity;
           h_lock = Mutex.create ();
         })
    (function MHist h -> Some h | _ -> None)

let latency_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10. |]

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c
let set g v = Atomic.set g v
let gauge_add g n = ignore (Atomic.fetch_and_add g n)
let gauge_value g = Atomic.get g

let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let observe h v =
  Mutex.lock h.h_lock;
  let n = Array.length h.edges in
  let rec bucket i = if i >= n || v <= h.edges.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  Mutex.unlock h.h_lock

(* --- snapshots ---------------------------------------------------------- *)

type histogram_snapshot = {
  edges : float array;
  counts : int array;
  count : int;
  sum : float;
  min : float; (* 0. when empty *)
  max : float; (* 0. when empty *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

let registered () =
  Mutex.lock reg_lock;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock reg_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let snapshot_hist h =
  Mutex.lock h.h_lock;
  let s =
    {
      edges = Array.copy h.edges;
      counts = Array.copy h.counts;
      count = h.h_count;
      sum = h.h_sum;
      min = (if h.h_count = 0 then 0. else h.h_min);
      max = (if h.h_count = 0 then 0. else h.h_max);
    }
  in
  Mutex.unlock h.h_lock;
  s

let snapshot () =
  List.fold_left
    (fun acc (name, { metric = m; _ }) ->
       match m with
       | MCounter c -> { acc with counters = acc.counters @ [ (name, Atomic.get c) ] }
       | MGauge g -> { acc with gauges = acc.gauges @ [ (name, Atomic.get g) ] }
       | MHist h ->
         { acc with histograms = acc.histograms @ [ (name, snapshot_hist h) ] })
    { counters = []; gauges = []; histograms = [] }
    (registered ())

let deterministic_snapshot () =
  List.filter_map
    (fun (name, { metric = m; timing }) ->
       match m with
       | _ when timing -> None
       | MCounter c -> Some (name, Atomic.get c)
       | MGauge g -> Some (name, Atomic.get g)
       | MHist _ -> None)
    (registered ())

let reset () =
  List.iter
    (fun (_, { metric = m; _ }) ->
       match m with
       | MCounter c | MGauge c -> Atomic.set c 0
       | MHist h ->
         Mutex.lock h.h_lock;
         Array.fill h.counts 0 (Array.length h.counts) 0;
         h.h_count <- 0;
         h.h_sum <- 0.;
         h.h_min <- infinity;
         h.h_max <- neg_infinity;
         Mutex.unlock h.h_lock)
    (registered ())

(* --- exports ------------------------------------------------------------ *)

let hist_to_json (s : histogram_snapshot) =
  let buckets =
    List.init (Array.length s.edges) (fun i ->
        Json.Obj
          [ ("le", Json.Float s.edges.(i)); ("count", Json.Int s.counts.(i)) ])
  in
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("buckets", Json.List buckets);
      ("overflow", Json.Int s.counts.(Array.length s.edges));
    ]

(* The JSON export keeps the documented contract that the [counters]
   and [gauges] sections are identical for every --jobs value: metrics
   registered [~timing:true] (script-memo and solo-skip counters) go to
   their own [timing] section instead, next to the equally
   schedule-dependent [histograms]. *)
let to_json_value () =
  let counters = ref []
  and gauges = ref []
  and timing = ref []
  and hists = ref [] in
  List.iter
    (fun (name, { metric = m; timing = is_timing }) ->
       let push l x = l := !l @ [ x ] in
       match m with
       | MCounter c | MGauge c when is_timing ->
         push timing (name, Json.Int (Atomic.get c))
       | MCounter c -> push counters (name, Json.Int (Atomic.get c))
       | MGauge g -> push gauges (name, Json.Int (Atomic.get g))
       | MHist h -> push hists (name, hist_to_json (snapshot_hist h)))
    (registered ());
  Json.Obj
    [
      ("counters", Json.Obj !counters);
      ("gauges", Json.Obj !gauges);
      ("timing", Json.Obj !timing);
      ("histograms", Json.Obj !hists);
    ]

let to_json () = Json.to_string (to_json_value ())

(* Prometheus text exposition. Metric names keep the registry's sorted
   order; dots become underscores and everything gets an [aurix_]
   prefix, so `serve.latency_s` scrapes as `aurix_serve_latency_s`.
   Histogram buckets are cumulative with a closing +Inf, per the
   exposition format. *)
let prometheus_name name =
  let sane =
    String.map
      (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' as c -> c | _ -> '_')
      name
  in
  "aurix_" ^ sane

let to_prometheus () =
  let b = Buffer.create 2048 in
  let scalar kind name v =
    let n = prometheus_name name in
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n%s %d\n" n kind n v)
  in
  List.iter
    (fun (name, { metric = m; _ }) ->
       match m with
       | MCounter c -> scalar "counter" name (Atomic.get c)
       | MGauge g -> scalar "gauge" name (Atomic.get g)
       | MHist h ->
         let s = snapshot_hist h in
         let n = prometheus_name name in
         Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
         let cumulative = ref 0 in
         Array.iteri
           (fun i edge ->
              cumulative := !cumulative + s.counts.(i);
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%.12g\"} %d\n" n edge
                   !cumulative))
           s.edges;
         Buffer.add_string b
           (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n s.count);
         Buffer.add_string b (Printf.sprintf "%s_sum %.12g\n" n s.sum);
         Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.count))
    (registered ());
  Buffer.contents b

let pp fmt () =
  let s = snapshot () in
  Format.fprintf fmt "@[<v>";
  if s.counters <> [] then begin
    Format.fprintf fmt "counters:@,";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "  %-42s %12d@," n v)
      s.counters
  end;
  if s.gauges <> [] then begin
    Format.fprintf fmt "gauges:@,";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-42s %12d@," n v) s.gauges
  end;
  if s.histograms <> [] then begin
    Format.fprintf fmt "histograms:@,";
    List.iter
      (fun (n, h) ->
         Format.fprintf fmt "  %-42s count=%d sum=%.6f min=%.6f max=%.6f@," n
           h.count h.sum h.min h.max)
      s.histograms
  end;
  Format.fprintf fmt "@]"
