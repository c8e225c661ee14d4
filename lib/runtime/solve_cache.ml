open Numeric

type outcome = Solved of Ilp.Solution.t | Node_limit

type stats = {
  hits : int;
  misses : int;
  waited : int;
}

(* Entries are keyed by the model's *canonical structure* (see
   {!Ilp.Canonical}), so sweep points that build the same program in a
   different variable/row order share one solve. The canonical
   *representative* is what gets solved, and outcomes are stored in the
   representative's frame: every requester — including the first — maps
   values back through its own permutation. That keeps the stored
   outcome independent of which twin arrived first, so results stay
   deterministic at any parallel degree.

   Single-flight ({!Single_flight}): the first requester of a key
   solves; concurrent requesters of the same key block until the
   outcome lands, then count as hits. This makes the hit/miss
   split a function of the request sequence alone — every unique key is
   exactly one miss, every other request a hit — so cache counters are
   identical at any parallel degree, which the metrics determinism
   guarantee relies on. [waited] counts how many of those hits also
   blocked on an in-flight solve; that is a timing fact of the parallel
   schedule (always 0 at jobs=1), so it is kept out of the jobs-invariant
   Obs counter set and reported only in [stats]. *)
let table : outcome Single_flight.t =
  Single_flight.create ~entries:(Obs.Metrics.gauge "solve_cache.entries") ()

(* guards [audit_failures_tbl] *)
let lock = Mutex.create ()
let hit_count = Atomic.make 0
let miss_count = Atomic.make 0
let waited_count = Atomic.make 0
let m_hits = Obs.Metrics.counter "solve_cache.hits"
let m_misses = Obs.Metrics.counter "solve_cache.misses"

let canonical_key ~tag canon =
  Digest.to_hex (Digest.string (tag ^ "\n" ^ Ilp.Canonical.structure canon))

(* A model canonicalized once however many solvers are asked: the
   contention bound asks the LP and the ILP of one model. *)
type prepared = Ilp.Canonical.t

let prepare = Ilp.Canonical.of_model

(* --- stable key/entry serialization ------------------------------------- *)

(* Persisted outcomes are stored in the canonical representative's frame
   (exactly what the in-memory table holds), so a disk-loaded entry goes
   through the same [replay] permutation mapping as a memory hit.
   Rationals are rendered via {!Q.to_string} — exact, so a reloaded
   solution is bitwise the solution a fresh solve would produce. *)

(* A label only: unlike the run cache's, keys do not hash it, and a
   golden test pins their bytes. v2: the ILP tag lost its constant
   [|presolve=true] token, so v1 ILP entries on disk read as misses. *)
let key_format_version = 2

(* v1: certificate-less entry — emitted bitwise-identically to the
   pre-audit format, so existing disk caches stay valid. v2: the same
   fields plus a ["cert"] object ({!Ilp.Cert.to_json}); emitted only
   when a solve actually carried a certificate. The decoder accepts
   both. *)
let entry_format_version = 2

let is_key s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let key_to_string k = k
let key_of_string s = if is_key s then Some s else None

module J = Obs.Json

let entry_to_string ?cert outcome =
  let version = match cert with None -> 1 | Some _ -> 2 in
  let fields =
    match outcome with
    | Solved (Ilp.Solution.Optimal { objective; values }) ->
      [
        ("v", J.Int version);
        ("outcome", J.Str "optimal");
        ("objective", J.Str (Q.to_string objective));
        ( "values",
          J.List
            (Array.to_list (Array.map (fun q -> J.Str (Q.to_string q)) values))
        );
      ]
    | Solved Ilp.Solution.Infeasible ->
      [ ("v", J.Int version); ("outcome", J.Str "infeasible") ]
    | Solved Ilp.Solution.Unbounded ->
      [ ("v", J.Int version); ("outcome", J.Str "unbounded") ]
    | Node_limit -> [ ("v", J.Int version); ("outcome", J.Str "node-limit") ]
  in
  let fields =
    match cert with
    | None -> fields
    | Some c -> fields @ [ ("cert", Ilp.Cert.to_json c) ]
  in
  J.to_string (J.Obj fields)

let ( let* ) = Option.bind

let q_of_string s =
  match Q.of_string s with q -> Some q | exception _ -> None

let entry_decode s =
  match J.parse s with
  | Error _ -> None
  | Ok j ->
    let* v = match J.member "v" j with Some (J.Int i) -> Some i | _ -> None in
    if v < 1 || v > entry_format_version then None
    else
      let* outcome =
        match J.member "outcome" j with Some (J.Str s) -> Some s | _ -> None
      in
      let* outcome =
        match outcome with
        | "infeasible" -> Some (Solved Ilp.Solution.Infeasible)
        | "unbounded" -> Some (Solved Ilp.Solution.Unbounded)
        | "node-limit" -> Some Node_limit
        | "optimal" ->
          let* objective =
            match J.member "objective" j with
            | Some (J.Str s) -> q_of_string s
            | _ -> None
          in
          let* values =
            match J.member "values" j with
            | Some (J.List xs) ->
              let rec loop acc = function
                | [] -> Some (List.rev acc)
                | J.Str s :: rest ->
                  let* q = q_of_string s in
                  loop (q :: acc) rest
                | _ -> None
              in
              loop [] xs
            | _ -> None
          in
          Some
            (Solved
               (Ilp.Solution.Optimal
                  { objective; values = Array.of_list values }))
        | _ -> None
      in
      (match (v, J.member "cert" j) with
       | 1, _ | _, None -> Some (outcome, None)
       | _, Some cj ->
         (* a v2 entry that declares a certificate must decode: a
            mangled certificate makes the whole entry corrupt *)
         let* c = Ilp.Cert.of_json cj in
         Some (outcome, Some c))

let entry_of_string s = Option.map fst (entry_decode s)

(* --- persistent backing store ------------------------------------------- *)

type store = {
  load : string -> string option;
  save : string -> string -> unit;
  reject : string -> unit;
}

let store_ref : store option Atomic.t = Atomic.make None

let set_store s = Atomic.set store_ref s

let store_load k =
  match Atomic.get store_ref with
  | None -> None
  | Some s -> (
    match s.load k with
    | None -> None
    | Some data -> entry_decode data
    | exception _ -> None)

let store_save ?cert k o =
  match Atomic.get store_ref with
  | None -> ()
  | Some s -> ( try s.save k (entry_to_string ?cert o) with _ -> ())

let store_reject k =
  match Atomic.get store_ref with
  | None -> ()
  | Some s -> ( try s.reject k with _ -> ())

let size () = Single_flight.size table

let count_hit ~key ~waited =
  Atomic.incr hit_count;
  Obs.Metrics.incr m_hits;
  Obs.Tracer.instant "cache.solve.hit" ~attrs:(fun () -> [ ("key", key) ]);
  if waited then Atomic.incr waited_count

(* Map a canonical-frame outcome back into the requester's frame. *)
let replay canon outcome =
  match outcome with
  | Solved (Ilp.Solution.Optimal { objective; values }) ->
    Ilp.Solution.Optimal
      { objective; values = Ilp.Canonical.restore_values canon values }
  | Solved s -> s
  | Node_limit -> raise Ilp.Branch_bound.Node_limit_exceeded

(* --- audit mode --------------------------------------------------------- *)

(* When enabled, every fresh solve goes through the certified solver
   entry points and its certificate is checked by {!Audit.Checker}
   (an arithmetic-independent exact checker) before the outcome
   settles; certificates are persisted with the entry and re-checked on
   every disk load (failed check => quarantine + certified recompute).
   All auditing happens inside the single-flight reservation, so each
   unique key is audited exactly once per process — the
   audit.{verified,failed} counters are jobs-invariant. *)
let audit_flag = Atomic.make false

let set_audit b = Atomic.set audit_flag b
let audit_enabled () = Atomic.get audit_flag

(* Keys whose *freshly computed* answer failed its own audit — a solver
   bug surfaced; the answer is still served (there is no better one) and
   the failure is reported by the [audit] subcommand. Quarantined disk
   entries are deliberately not recorded here: they are recovered from
   by recomputation. *)
let audit_failures_tbl : (string, string) Hashtbl.t = Hashtbl.create 16

let record_audit_failure k reason =
  Mutex.lock lock;
  Hashtbl.replace audit_failures_tbl k reason;
  Mutex.unlock lock

let audit_failures () =
  Mutex.lock lock;
  let l = Hashtbl.fold (fun k r acc -> (k, r) :: acc) audit_failures_tbl [] in
  Mutex.unlock lock;
  List.sort compare l

let solve_cached ~tag ?slack ~solve ~solve_certified canon =
  let k = canonical_key ~tag canon in
  match Single_flight.acquire table k with
  | `Hit (outcome, waited) ->
    count_hit ~key:k ~waited;
    replay canon outcome
  | `Reserved ->
    Atomic.incr miss_count;
    Obs.Metrics.incr m_misses;
    Obs.Tracer.instant "cache.solve.miss" ~attrs:(fun () -> [ ("key", k) ]);
    let auditing = audit_enabled () in
    let cm = Ilp.Canonical.model canon in
    (* A disk entry is served if it still proves what it claims: under
       audit it is re-audited (the checksum tier catches bit rot, this
       tier catches content that no longer verifies); a certless entry
       from a pre-audit producer is recomputed so the tier gets
       upgraded in place. A node-limit outcome carries no certificate. *)
    let loaded () =
      match store_load k with
      | None -> None
      | Some (o, _) when not auditing -> Some o
      | Some ((Node_limit as o), _) -> Some o
      | Some (Solved _, None) -> None
      | Some ((Solved s as o), Some cert) -> (
        match Audit.Checker.audit ?slack cm s cert with
        | Audit.Checker.Verified -> Some o
        | Audit.Checker.Failed _ ->
          store_reject k;
          None)
    in
    (* A fresh solve, with the certificate (if any) to persist. A
       node-limit outcome is deterministic for the key, so it is cached
       too. *)
    let fresh () =
      match
        if auditing then begin
          let s, cert = solve_certified cm in
          (match Audit.Checker.audit ?slack cm s cert with
           | Audit.Checker.Failed reason -> record_audit_failure k reason
           | Audit.Checker.Verified -> ());
          (s, Some cert)
        end
        else (solve cm, None)
      with
      | s, cert -> (Solved s, Some cert)
      | exception Ilp.Branch_bound.Node_limit_exceeded -> (Node_limit, Some None)
    in
    (* [save] is [Some cert] for a fresh outcome, [None] for a loaded
       one *)
    let outcome, save =
      try (match loaded () with Some o -> (o, None) | None -> fresh ())
      with e ->
        (* an uncached failure: release the key so a later request can
           retry *)
        Single_flight.fail table k;
        raise e
    in
    Single_flight.settle table k outcome;
    Option.iter (fun cert -> store_save ?cert k outcome) save;
    replay canon outcome

(* --- public solvers ---------------------------------------------------- *)

let solve_lp prepared =
  solve_cached ~tag:"lp" ~solve:Ilp.Simplex.solve
    ~solve_certified:(fun m ->
        let s, c = Ilp.Simplex.solve_certified m in
        (s, Ilp.Cert.Lp c))
    prepared

let solve_ilp ?(node_limit = 200_000) ?(slack = Q.zero) prepared =
  let tag =
    Printf.sprintf "ilp|nodes=%d|slack=%s" node_limit (Q.to_string slack)
  in
  solve_cached ~tag ~slack
    ~solve:(Ilp.Branch_bound.solve ~node_limit ~slack)
      (* the certified search always runs presolve-less (its node boxes
         must derive from the branching path alone); the answer is the
         same either way — presolve only skips work — so the entry is
         still valid for this tag *)
    ~solve_certified:(Ilp.Branch_bound.solve_certified ~node_limit ~slack)
    prepared

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
  (* waiters on a cleared reservation become fresh misses — acceptable
     for a bench-only operation *)
  Single_flight.clear table;
  Mutex.protect lock (fun () -> Hashtbl.reset audit_failures_tbl);
  reset_stats ()
