(* The results document ([BENCH_results.json]) and its JSON round trip. *)

type metric = { name : string; value : float; unit_ : string; n : int }

type run = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;  (** output digest of the workload's first batch *)
  metrics : metric list;
}

type env = {
  commit : string;
  nproc : int;
  jobs : int;
  ocaml : string;
  seed : int;
  seconds : int;
  aurix_env : (string * string) list;  (** AURIX_* variables that were set *)
}

type doc = { env : env; runs : run list }

module J = Obs.Json

let metric_to_json m =
  (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_); ("n", J.Int m.n) ])

let run_to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("traced", J.Bool r.traced);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("digest", J.Str r.digest);
      ("metrics", J.Obj (List.map metric_to_json r.metrics));
    ]

let env_to_json e =
  J.Obj
    [
      ("commit", J.Str e.commit);
      ("nproc", J.Int e.nproc);
      ("jobs", J.Int e.jobs);
      ("ocaml", J.Str e.ocaml);
      ("seed", J.Int e.seed);
      ("seconds", J.Int e.seconds);
      ("aurix_env", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) e.aurix_env));
    ]

let to_json d = J.Obj [ ("env", env_to_json d.env); ("runs", J.List (List.map run_to_json d.runs)) ]

exception Malformed of string

let field k j = match J.member k j with Some v -> v | None -> raise (Malformed k)
let str k j = match field k j with J.Str s -> s | _ -> raise (Malformed k)
let int k j = match field k j with J.Int i -> i | _ -> raise (Malformed k)
let bool k j = match field k j with J.Bool b -> b | _ -> raise (Malformed k)

(* Obs.Json prints an integral float as an integer token *)
let num k j = match field k j with J.Float f -> f | J.Int i -> float_of_int i | J.Null -> nan | _ -> raise (Malformed k)
let obj k j = match field k j with J.Obj kvs -> kvs | _ -> raise (Malformed k)

let run_of_json j =
  {
    workload = str "workload" j;
    traced = bool "traced" j;
    correct = bool "correct" j;
    attempted = int "attempted" j;
    failed = int "failed" j;
    digest = str "digest" j;
    metrics =
      List.map
        (fun (name, m) -> { name; value = num "value" m; unit_ = str "unit" m; n = int "n" m })
        (obj "metrics" j);
  }

let env_of_json j =
  {
    commit = str "commit" j;
    nproc = int "nproc" j;
    jobs = int "jobs" j;
    ocaml = str "ocaml" j;
    seed = int "seed" j;
    seconds = int "seconds" j;
    aurix_env =
      List.map (function k, J.Str v -> (k, v) | k, _ -> raise (Malformed k)) (obj "aurix_env" j);
  }

let of_json j =
  match field "runs" j with
  | J.List runs -> { env = env_of_json (field "env" j); runs = List.map run_of_json runs }
  | _ -> raise (Malformed "runs")

let of_string s =
  match J.parse s with
  | Error e -> Error e
  | Ok j -> ( try Ok (of_json j) with Malformed k -> Error ("missing or ill-typed field " ^ k))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write path d =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (J.to_string (to_json d));
      output_char oc '\n')

(* The one-line result the benchmark prints last. *)
let summary_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj (List.map (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ])) r.metrics) );
       ])
