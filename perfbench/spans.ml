(* Bench-local span recorder. The bench wraps each public call it makes
   into a layer in a span (name, start, end, parent, trace id) and
   records the calling domain's GC counters at both ends. Spans stay in
   memory and are written out as a Chrome trace_event file when the run
   ends. [Obs.Tracer] is not used: it stays disabled, so the per-layer
   numbers measure the program as users run it. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  trace : int;  (** the cell, bound, request or pass index *)
  tid : int;
  t0 : float;
  t1 : float;
  minor_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  scale : float;  (** host-speed scale of the span's time, see Probe *)
}

let lock = Mutex.create ()
let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0

(* open spans per thread: (id, trace) *)
let stacks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let enable () = on := true
let enabled () = !on
let spans () = List.rev !recorded

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let with_span ?trace name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent, trace =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let parent, inherited = match stack with (p, tr) :: _ -> (p, tr) | [] -> (-1, 0) in
          let trace = Option.value ~default:inherited trace in
          Hashtbl.replace stacks tid ((id, trace) :: stack);
          (id, parent, trace))
    in
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let g1 = Gc.quick_stat () in
      locked (fun () ->
          (match Hashtbl.find_opt stacks tid with
           | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
           | _ -> ());
          recorded :=
            {
              id; name; parent; trace; tid; t0; t1;
              minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              major_words = g1.Gc.major_words -. g0.Gc.major_words;
              minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
              major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
              scale = 1.;
            }
            :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

(* Sets each span's scale to [f t0 t1]. *)
let rescale f = recorded := List.map (fun s -> { s with scale = f s.t0 s.t1 }) !recorded

(* The span's duration at the probe's reference host speed *)
let dur_ms s = (s.t1 -. s.t0) *. 1e3 *. s.scale

(* A layer is the span name up to its first dot: "mbta.isolation" is
   in mbta. *)
let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

type self = { layer_name : string; calls : int; self_ms : float; self_minor_words : float }

(* Self time: a span's duration minus its children's. Children of one
   span run on the parent's thread, one after another, so their
   durations do not overlap. *)
let self_times (all : span list) =
  let child_ms = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent >= 0 then begin
         let add tbl v = Hashtbl.replace tbl s.parent (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent)) in
         add child_ms (dur_ms s);
         add child_words s.minor_words
       end)
    all;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
       let l = layer s in
       let calls, ms, words = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt per_layer l) in
       Hashtbl.replace per_layer l
         (calls + 1, ms +. dur_ms s -. get child_ms, words +. s.minor_words -. get child_words))
    all;
  Hashtbl.fold
    (fun layer_name (calls, self_ms, self_minor_words) acc ->
       { layer_name; calls; self_ms; self_minor_words } :: acc)
    per_layer []
  |> List.sort (fun a b -> compare b.self_ms a.self_ms)

let pp_self_times fmt rows =
  Format.fprintf fmt "%-12s %8s %12s %14s@." "layer" "calls" "self ms" "self Mwords";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-12s %8d %12.1f %14.3f@." r.layer_name r.calls r.self_ms
         (r.self_minor_words /. 1e6))
    rows

(* Chrome trace_event format: one complete ("X") event per span,
   microsecond timestamps relative to the first span. Timestamps and
   durations are host time; [scale] is in the arguments. *)
let to_chrome (all : span list) =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let us t = Obs.Json.Float ((t -. origin) *. 1e6) in
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.map
             (fun s ->
                Obs.Json.Obj
                  [
                    ("name", Obs.Json.Str s.name);
                    ("cat", Obs.Json.Str (layer s));
                    ("ph", Obs.Json.Str "X");
                    ("ts", us s.t0);
                    ("dur", Obs.Json.Float ((s.t1 -. s.t0) *. 1e6));
                    ("pid", Obs.Json.Int 1);
                    ("tid", Obs.Json.Int s.tid);
                    ( "args",
                      Obs.Json.Obj
                        [
                          ("id", Obs.Json.Int s.id);
                          ("parent", Obs.Json.Int s.parent);
                          ("trace", Obs.Json.Int s.trace);
                          ("minor_words", Obs.Json.Float s.minor_words);
                          ("major_words", Obs.Json.Float s.major_words);
                          ("scale", Obs.Json.Float s.scale);
                        ] );
                  ])
             all) );
      ("displayTimeUnit", Obs.Json.Str "ms");
    ]

let write_chrome path all =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Obs.Json.to_string (to_chrome all));
      output_char oc '\n')
