(** Set-associative cache with true-LRU replacement and write-back,
    write-allocate policy.

    Models the TC1.6P instruction cache (16 KiB, 2-way) and data cache
    (8 KiB, 2-way), 32-byte lines. The simulator only needs hit/miss and
    victim information; no data contents are stored. *)

type geometry = { size_bytes : int; ways : int; line_bytes : int }

val tc16p_icache : geometry
(** 16 KiB, 2-way, 32-byte lines. *)

val tc16p_dcache : geometry
(** 8 KiB, 2-way, 32-byte lines. *)

val tc16e_icache : geometry
(** 8 KiB, 2-way, 32-byte lines (the 1.6E efficiency core). *)

type t

val create : geometry -> t
(** @raise Invalid_argument unless sizes are positive powers of two and
    [size_bytes] is divisible by [ways * line_bytes]. *)

type outcome =
  | Hit
  | Miss of { victim : int option }
      (** Allocated after a miss; [victim] is the line-aligned address of
          the evicted {e dirty} line, if the victim needed a write-back. *)

val access : t -> addr:int -> write:bool -> outcome
(** Looks up the line containing [addr]; on a miss the line is allocated
    (write-allocate) and the LRU way evicted. A write marks the line
    dirty. *)

val access_code : t -> addr:int -> write:bool -> int
(** {!access} without allocating: {!hit}, {!clean_miss}, or the dirty
    victim's line-aligned address (non-negative). *)

val hit : int
val clean_miss : int

val probe : t -> addr:int -> bool
(** Non-destructive lookup: would [addr] hit? *)

val lines : t -> int
(** Lines the cache holds: [size_bytes / line_bytes]. *)

val snapshot : t -> int array -> pos:int -> unit
(** Writes the cache's canonical state into [lines t] slots from [pos]:
    per set, the valid lines from most to least recently used, each as
    [tag lsl 1 lor dirty], then [-1] for every invalid way. Two caches
    with equal snapshots classify every access sequence alike — LRU
    victims depend on recency order alone, and way positions never show
    in an outcome — so the snapshot is what loop replay compares
    ({!Core_model.Script}). Allocates nothing. *)

val flush : t -> unit
(** Invalidate everything (drops dirty lines; used between runs). *)

val geometry : t -> geometry
val hits : t -> int
val misses : t -> int
