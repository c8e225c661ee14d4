(** A single-flight table over string keys: the one wait-and-settle
    protocol behind {!Run_cache}, {!Solve_cache} and the serve engine's
    query table.

    The first requester of a key reserves it and computes; concurrent
    requesters of the same key block until it settles and then hit.
    Hit/miss totals are therefore a function of the request multiset
    alone — one reservation per unique key, a hit for every other
    request — identical at any parallel degree. A failed reservation
    releases the key: its waiters wake up and the first of them reserves
    it afresh. *)

type 'a t

val create : ?entries:Obs.Metrics.gauge -> unit -> 'a t
(** An empty table. [entries], if given, is set to the settled-entry
    count under the table's lock on every {!settle} and {!clear}, so the
    last write is always the current count. *)

val acquire : 'a t -> string -> [ `Hit of 'a * bool | `Reserved ]
(** [`Hit (v, waited)] if the key is settled to [v] — [waited] is true
    when the call blocked on another requester's reservation first (a
    timing fact, always false at jobs=1) — or [`Reserved]: the caller
    now owns the key and must {!settle} or {!fail} it. *)

val settle : 'a t -> string -> 'a -> unit
(** Settles a reserved key to a value and wakes its waiters. A key that
    is no longer reserved (dropped by {!clear}) is left alone. *)

val fail : 'a t -> string -> unit
(** Releases a reserved key without a value (an uncached failure) and
    wakes its waiters, which re-reserve it. *)

val size : 'a t -> int
(** Settled entries. *)

val clear : 'a t -> unit
(** Drops every entry. Waiters on a dropped reservation re-check, find
    nothing, and reserve the key afresh. *)
