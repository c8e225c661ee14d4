(* The benchmark harness. Run from the repository root:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
       one workload; prints every metric with its unit and sample count,
       then a one-line JSON result. --trace 0 gives the end-to-end
       metrics of BENCHMARK.json, --trace 1 the per-layer ones.
     main.exe report [--seed N] [--seconds S] [--workload W] [--trace DIR] [--out FILE]
       every workload (or one), each in a forked child, untraced and,
       with --trace, traced too; writes BENCH_results.json.
     main.exe compare --base FILE... --cand FILE...
       applies BENCHMARK.json's regression bounds to two sets of results
       files; exits with 1 if a metric regressed, else with 3 if one is
       too noisy to tell.
     main.exe gate
       one paper-grid batch, checked against the counts recorded in
       perfbench/expected.json: exact output digest and simulated cycles,
       no more events, nodes, pivots or allocated words per event.

   See perfbench/README.md. *)

open Perfbench
module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let read_json path =
  match J.parse (Results.read_file path) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and the expected digests                              *)
(* ------------------------------------------------------------------ *)

type decl = { name : string; unit_ : string; better : Stats.better; bound : float }

let decls kind spec =
  match J.member kind spec with
  | Some (J.List l) ->
    List.map
      (fun m ->
         let s k = match J.member k m with Some (J.Str s) -> s | _ -> die "BENCHMARK.json: %s needs %s" kind k in
         {
           name = s "name";
           unit_ = s "unit";
           better = (match Stats.better_of_string (s "better") with Some b -> b | None -> die "bad direction");
           bound = (match J.member "bound" m with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0.);
         })
      l
  | _ -> die "BENCHMARK.json has no %s list" kind

let spec () = read_json "BENCHMARK.json"

let expected_file = Filename.concat "perfbench" "expected.json"
let expected () = if Sys.file_exists expected_file then Some (read_json expected_file) else None

(* the digest recorded for (workload, seed); paper-grid has no seed *)
let expected_digest ~workload ~seed =
  match Option.bind (expected ()) (J.member "digests") with
  | None -> None
  | Some d -> (
    match J.member workload d with
    | None -> None
    | Some per_seed -> (
      match (J.member (string_of_int seed) per_seed, J.member "*" per_seed) with
      | Some (J.Str s), _ | None, Some (J.Str s) -> Some s
      | _ -> None))

(* ------------------------------------------------------------------ *)
(* Environment                                                          *)
(* ------------------------------------------------------------------ *)

let read_line_of path = try Some (String.trim (Results.read_file path)) with Sys_error _ -> None

(* HEAD's commit, read from .git without running git; "unknown" outside
   a work tree *)
let commit () =
  match read_line_of (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_line_of (Filename.concat ".git" ref_) with
    | Some c -> c
    | None ->
      let packed = Option.value ~default:"" (read_line_of (Filename.concat ".git" "packed-refs")) in
      List.find_map
        (fun l -> match String.split_on_char ' ' l with [ c; r ] when r = ref_ -> Some c | _ -> None)
        (String.split_on_char '\n' packed)
      |> Option.value ~default:"unknown")
  | Some c -> c

let nproc = Domain.recommended_domain_count ()
let jobs = min nproc 4

let env ~seed ~seconds =
  {
    Results.commit = commit ();
    nproc;
    jobs;
    ocaml = Sys.ocaml_version;
    seed;
    seconds = Float.to_int seconds;
    aurix_env =
      List.filter_map
        (fun kv ->
           match String.index_opt kv '=' with
           | Some i when String.starts_with ~prefix:"AURIX_" kv ->
             Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
           | _ -> None)
        (Array.to_list (Unix.environment ()));
  }

let pp_env (e : Results.env) =
  Printf.printf "env: commit=%s nproc=%d jobs=%d ocaml=%s seed=%d seconds=%d%s\n" e.commit e.nproc e.jobs e.ocaml e.seed
    e.seconds
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) e.aurix_env))

(* ------------------------------------------------------------------ *)
(* One workload                                                         *)
(* ------------------------------------------------------------------ *)

let end_to_end ~tail_p (e : Workloads.e2e) =
  let ops = List.length e.lat_ms in
  [
    ("setup_s", Stats.median e.setup_s, List.length e.setup_s);
    ("ops_per_s", e.ops_per_s, ops);
    ("op_p50_ms", Stats.median e.lat_ms, ops);
    ("op_tail_ms", Stats.percentile e.lat_ms tail_p, ops);
  ]

let run_one ~spec ~workload ~seed ~seconds ~traced ~trace_dir =
  let w =
    match List.assoc_opt workload Workloads.all with
    | Some w -> w
    | None -> die "unknown workload %S (expected one of: %s)" workload (String.concat ", " (List.map fst Workloads.all))
  in
  let o = Workloads.run w { Workloads.seed; seconds; jobs } ~traced in
  let produced =
    if traced then List.map (fun (k, v) -> (k, v, o.traced_ops)) o.layers else end_to_end ~tail_p:o.tail_p o.scaled
  in
  let metrics =
    List.map
      (fun d ->
         match List.find_opt (fun (k, _, _) -> k = d.name) produced with
         (* a statistic of no samples (every operation failed) reads 0 *)
         | Some (_, v, n) -> { Results.name = d.name; value = (if Float.is_finite v then v else 0.); unit_ = d.unit_; n }
         | None when traced -> { Results.name = d.name; value = 0.; unit_ = d.unit_; n = 0 }
         | None -> die "BENCHMARK.json declares %s, which the harness does not measure" d.name)
      (decls (if traced then "per_layer" else "end_to_end") spec)
  in
  let digest_ok =
    match expected_digest ~workload ~seed with
    | Some d when d <> o.digest ->
      Printf.printf "digest %s differs from the recorded %s\n" o.digest d;
      false
    | _ -> true
  in
  let failed = o.failed + if digest_ok then 0 else 1 in
  let r =
    {
      Results.workload;
      traced;
      correct = failed = 0 && o.attempted > 0;
      attempted = o.attempted;
      failed;
      digest = o.digest;
      metrics;
    }
  in
  Printf.printf "== %s (seed %d, %s, %d ops, %d failed, digest %s)\n" workload seed
    (if traced then "traced" else "untraced")
    o.attempted failed o.digest;
  Printf.printf "  times scaled to the probe's reference host speed; the host ran %.3fx slower (median of %d samples)\n"
    (Probe.median_slowdown o.probe) (Array.length o.probe);
  let host = end_to_end ~tail_p:o.tail_p o.host in
  List.iter
    (fun (m : Results.metric) ->
       let note =
         if m.name <> "op_tail_ms" then ""
         else if Stats.tail_percentile m.n < o.tail_p then Printf.sprintf " (p%g; under 10 samples beyond it)" o.tail_p
         else Printf.sprintf " (p%g)" o.tail_p
       in
       let unscaled =
         match List.find_opt (fun (k, _, _) -> k = m.name) host with
         | Some (_, v, _) when not traced -> Printf.sprintf " host=%.4f" v
         | _ -> ""
       in
       Printf.printf "  %-36s %14.4f %-14s n=%d%s%s\n" m.name m.value m.unit_ m.n note unscaled)
    metrics;
  if traced then begin
    Format.printf "self time by layer (bench spans):@.%a%!" Spans.pp_self_times (Spans.self_times o.spans);
    Option.iter
      (fun dir ->
         Workloads.Service.mkdir_p dir;
         let path = Filename.concat dir (workload ^ ".trace.json") in
         Spans.write_chrome path o.spans;
         Printf.printf "trace written to %s\n" path)
      trace_dir
  end;
  r

(* ------------------------------------------------------------------ *)
(* report / compare / gate                                              *)
(* ------------------------------------------------------------------ *)

(* Runs [f] in a forked child and returns the run it reports: each
   workload gets its own heap, and the parent never spawns a domain. *)
let in_child f =
  match Option.map J.parse (Workloads.in_child (fun () -> J.to_string (Results.run_to_json (f ())))) with
  | Some (Ok j) -> ( try Some (Results.run_of_json j) with Results.Malformed _ -> None)
  | _ -> None

let report ~seed ~seconds ~workloads ~trace_dir ~out =
  let spec = spec () in
  let env = env ~seed ~seconds in
  pp_env env;
  let runs =
    List.concat_map
      (fun workload ->
         let one traced () = run_one ~spec ~workload ~seed ~seconds ~traced ~trace_dir in
         let untraced = in_child (one false) in
         let traced = if trace_dir = None then [] else [ in_child (one true) ] in
         List.map
           (function
             | Some r -> r
             | None ->
               { Results.workload; traced = false; correct = false; attempted = 1; failed = 1; digest = ""; metrics = [] })
           (untraced :: traced))
      workloads
  in
  Results.write out { Results.env; runs };
  Printf.printf "results written to %s\n" out;
  List.iter
    (fun (r : Results.run) ->
       Printf.printf "%-14s %-8s correct=%b attempted=%d failed=%d\n" r.workload
         (if r.traced then "traced" else "untraced")
         r.correct r.attempted r.failed)
    runs;
  if List.for_all (fun (r : Results.run) -> r.correct) runs then 0 else 1

(* medians over a set of results files, per (workload, metric) *)
let medians files =
  let docs =
    List.map
      (fun f -> match Results.of_string (Results.read_file f) with Ok d -> d | Error e -> die "%s: %s" f e)
      files
  in
  let runs = List.concat_map (fun d -> List.filter (fun r -> not r.Results.traced) d.Results.runs) docs in
  let tbl = Hashtbl.create 64 in
  let push k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (r : Results.run) ->
       push (r.workload, "failed_ratio") (Workloads.ratio (float_of_int r.failed) (float_of_int r.attempted));
       List.iter (fun (m : Results.metric) -> push (r.workload, m.name) m.value) r.metrics)
    runs;
  tbl

let compare_sets ~base ~cand =
  let decls = decls "end_to_end" (spec ()) in
  let b = medians base and c = medians cand in
  let workloads = List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) b []) in
  let verdicts = ref [] in
  Printf.printf "%-14s %-14s %12s %8s %12s %8s %8s  %s\n" "workload" "metric" "base" "spread" "cand" "spread" "change" "verdict";
  List.iter
    (fun workload ->
       let rows =
         List.map
           (fun d ->
              ( d.name,
                {
                  Stats.better = d.better;
                  rel = d.bound;
                  floor = (if d.name = "setup_s" then Stats.setup_floor_s else 0.);
                } ))
           decls
         @ [ ("failed_ratio", Stats.failed_ratio_bound) ]
       in
       List.iter
         (fun (name, bound) ->
            match (Hashtbl.find_opt b (workload, name), Hashtbl.find_opt c (workload, name)) with
            | Some bs, Some cs ->
              let bm = Stats.median bs and cm = Stats.median cs in
              let v = Stats.verdict bound ~base:bs ~cand:cs in
              verdicts := v :: !verdicts;
              Printf.printf "%-14s %-14s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%%  %s\n" workload name bm
                (100. *. Stats.spread bs) cm (100. *. Stats.spread cs)
                (100. *. Workloads.ratio (cm -. bm) bm)
                (Stats.verdict_to_string v)
            | _ -> ())
         rows)
    workloads;
  if List.mem Stats.Regressed !verdicts then 1 else if List.mem Stats.Unresolved !verdicts then 3 else 0

let gate () =
  let spec = spec () in
  let r = run_one ~spec ~workload:"paper-grid" ~seed:1 ~seconds:0. ~traced:true ~trace_dir:None in
  let recorded =
    match Option.bind (expected ()) (J.member "gate") with
    | Some (J.Obj kvs) -> kvs
    | _ -> die "%s has no gate section" expected_file
  in
  let value k = (List.find (fun (m : Results.metric) -> m.name = k) r.metrics).value in
  let fails =
    List.filter_map
      (fun (k, v) ->
         let v = match v with J.Float f -> f | J.Int i -> float_of_int i | _ -> nan in
         let now = value k in
         (* simulated statistics must not move; work counts must not grow *)
         let exact = k = "tcsim.cycles" || k = "sri.grants" in
         Printf.printf "gate %-30s recorded %14.4f now %14.4f\n" k v now;
         if (exact && now <> v) || now > v then Some k else None)
      recorded
  in
  if not r.correct then print_endline "gate: paper-grid outputs are wrong";
  if fails <> [] then Printf.printf "gate: %s moved\n" (String.concat ", " fails);
  if r.correct && fails = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the bench fixes what the environment could otherwise change *)
  Tcsim.Machine.set_default_kernel `Event;
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args = match args with m :: rest when String.length m > 0 && m.[0] <> '-' -> (m, rest) | _ -> ("run", args) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k && not (String.starts_with ~prefix:"--" v) ->
      let vs, rest' = take [ v ] rest in
      opts ((k, vs) :: acc) rest'
    | k :: rest when String.starts_with ~prefix:"--" k -> opts ((k, []) :: acc) rest
    | [] -> List.rev acc
    | x :: _ -> die "unexpected argument %S" x
  and take acc = function
    | v :: rest when not (String.starts_with ~prefix:"--" v) -> take (v :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let opts = opts [] args in
  let one k = match List.assoc_opt k opts with Some [ v ] -> Some v | Some _ -> die "%s takes one value" k | None -> None in
  let many k = Option.value ~default:[] (List.assoc_opt k opts) in
  let num k default conv = match one k with Some v -> (try conv v with _ -> die "bad %s %S" k v) | None -> default in
  let seed = num "--seed" 1 int_of_string in
  let code =
    match mode with
    | "run" ->
      let workload = match one "--workload" with Some w -> w | None -> die "--workload is required" in
      let seconds = num "--seconds" 15. float_of_string in
      let traced = num "--trace" false (function "0" -> false | "1" -> true | _ -> failwith "0 or 1") in
      let spec = spec () in
      pp_env (env ~seed ~seconds);
      let r = run_one ~spec ~workload ~seed ~seconds ~traced ~trace_dir:(one "--trace-dir") in
      print_endline (Results.summary_line r);
      if r.correct then 0 else 1
    | "report" ->
      let workloads = match one "--workload" with Some w -> [ w ] | None -> List.map fst Workloads.all in
      report ~seed ~seconds:(num "--seconds" 15. float_of_string) ~workloads ~trace_dir:(one "--trace")
        ~out:(Option.value ~default:"BENCH_results.json" (one "--out"))
    | "compare" -> (
      match (many "--base", many "--cand") with
      | [], _ | _, [] -> die "compare needs --base FILE... and --cand FILE..."
      | base, cand -> compare_sets ~base ~cand)
    | "gate" -> gate ()
    | m -> die "unknown mode %S (expected report, compare or gate)" m
  in
  exit code
