(** The serve wire protocol: newline-delimited JSON request/response
    messages for the [aurix_contention serve] daemon.

    Design constraints:
    - every message is one line of JSON (no embedded newlines) carrying a
      version field ["v"] and an operation tag ["op"];
    - all numeric payload is integral — {!Obs.Json} renders floats with
      [%.12g], which does not round-trip bit-exactly, so the protocol
      avoids floats entirely (wall-clock time travels as microseconds);
    - decoding is total: any malformed input maps to [Error _], never an
      exception, so the daemon's admission control can reject with a
      structured diagnostic instead of crashing;
    - encode/decode are exact inverses on well-formed values (a QCheck
      property in [test_serve] pins this), which is what lets responses
      be byte-compared across processes and parallel degrees.

    {b Versioning.} There is one wire version, {!version} (2). Every
    encoder renders it, and a line carrying any other ["v"] decodes to
    an [Error] that names the version. A future bump changes every
    rendering, and so every content digest taken over one
    ({!Engine.digest}). *)

(** {1 Requests} *)

val version : int
(** The version every encoding carries and every decoder requires (2). *)

type model = Ideal | Ftc | Ilp_ptac

val model_to_string : model -> string
(** ["ideal"], ["ftc"], ["ilp-ptac"]. *)

val model_of_string : string -> model option

type program_spec = { pname : string; pitems : Tcsim.Program.item list }
(** An inline task program. Items are validated by admission control
    ({!Tcsim.Program.make} plus the program lint), not by the decoder. *)

type app_spec =
  | App_bundled
      (** the paper's control-loop application for the request's scenario *)
  | App_inline of program_spec

type contender_spec =
  | Con_level of { level : Workload.Load_gen.level; core : int }
      (** a bundled load generator; its region slot is its core, so
          distinct cores never share SRI lines *)
  | Con_inline of { ccore : int; cprogram : program_spec }

type span_ref = { trace_id : string; parent_span : string }
(** A reference into the requester's trace: the daemon adopts
    [trace_id] as the ambient {!Obs.Tracer} trace id while handling the
    request, so client and server spans share one id and stitch into a
    single tree; [parent_span] names the client span the daemon's
    [serve.request] span logically nests under. *)

type analyze = {
  id : string;  (** echoed verbatim in the response, for correlation *)
  scenario : string;  (** resolved via {!Platform.Scenario.find} *)
  app : app_spec;
  contenders : contender_spec list;
  models : model list;  (** bounds to compute, in response order *)
  observed : bool;  (** also run the actual co-run and report its cycles *)
  trace : span_ref option;
      (** propagated trace context; ignored by the content digest *)
}

type request =
  | Analyze of analyze
  | Ping of string
  | Metrics_req of string  (** full metrics snapshot as JSON *)
  | Stats_req of string  (** engine counters (requests served, hits, …) *)
  | Shutdown of string  (** acknowledged, then the daemon stops *)

(** {1 Responses} *)

type provenance =
  | Computed  (** simulated/solved on this request *)
  | Memory  (** in-process single-flight table *)
  | Disk  (** persistent tier *)

val provenance_to_string : provenance -> string
val provenance_of_string : string -> provenance option

type analyze_result = {
  isolation_cycles : int;
  observed_cycles : int option;  (** present iff the request set [observed] *)
  bounds : (model * int option) list;
      (** Δcont per requested model; [None] = infeasible for that model *)
  app_counters : Platform.Counters.t;
  contender_counters : (int * Platform.Counters.t) list;  (** by core *)
}

type reject_code = Parse | Invalid | Oversize | Lint | Cycle_limit | Internal

val reject_code_to_string : reject_code -> string
val reject_code_of_string : string -> reject_code option

type response =
  | Result of {
      rid : string;
      cache : provenance;
      wall_us : int;
      result : analyze_result;
    }
  | Reject of {
      xid : string option;  (** [None] when the request id was unreadable *)
      code : reject_code;
      message : string;
      diagnostics : Analysis.Diag.t list;
    }
  | Pong of string
  | Metrics_reply of { mid : string; metrics : Obs.Json.t }
  | Stats_reply of {
      sid : string;
      stats : (string * int) list;
          (** the flat engine counters; [payload]'s [engine] section
              repeats them, and dropping either would change the wire *)
      payload : Obs.Json.t;
          (** rich introspection (uptime, stage histograms, cache hit
              rates, recent rejects, Prometheus exposition); required on
              the wire *)
    }
  | Shutdown_ack of string

(** {1 Codec} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val result_to_json : analyze_result -> Obs.Json.t
val result_of_json : Obs.Json.t -> analyze_result option
(** Exposed for the engine's disk tier, which persists bare results. *)
