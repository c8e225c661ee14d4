(** TC27x address-space model.

    Address segments follow the TC27x layout: segment 0x7 holds the
    core-local scratchpads (no SRI traffic), segment 0x8 is cached program
    flash, 0xA its non-cached alias, 0x9/0xB the cached/non-cached LMU
    views, and the data flash sits in segment 0xAF (non-cacheable only).
    Cacheability is selected by the address segment used, exactly as system
    software does on the real part (paper, Section 2). *)

type region =
  | Dspr  (** core-local data scratchpad: no SRI traffic *)
  | Pspr  (** core-local program scratchpad: no SRI traffic *)
  | Sri of Platform.Target.t * bool  (** shared target, [true] = cacheable *)

val dspr_base : int
val dspr_size : int
val pspr_base : int
val pspr_size : int

val pf0_cached_base : int
val pf1_cached_base : int
val pf_bank_size : int
val pf0_uncached_base : int
val pf1_uncached_base : int

val lmu_cached_base : int
val lmu_uncached_base : int
val lmu_size : int

val dfl_base : int
val dfl_size : int

val classify : int -> region
(** @raise Invalid_argument for an unmapped address. *)

val classify_opt : int -> region option

val region_code : int -> int
(** {!classify_opt} as an int, for callers that must not allocate: [-1]
    unmapped, [0] dspr, [1] pspr, otherwise [2 + 2 * i + c] for an SRI
    window of the [i]-th target of {!Platform.Target.all} with
    cacheability [c] (1 = cacheable). *)

val unmapped : int -> 'a
(** Raises {!classify}'s [Invalid_argument] for the address. *)

val base_of : Platform.Target.t -> cacheable:bool -> int
(** Base address of a target's window with the requested cacheability.
    @raise Invalid_argument for cacheable dfl (no cached view exists). *)

val size_of : Platform.Target.t -> int
val line_bytes : int
(** SRI transfer granule: 32-byte lines (256-bit flash prefetch buffer /
    cache line). *)

val line_of : int -> int
(** Line-aligned address. *)

val line_key : int -> int
(** The shared 32-byte line an address falls in, as an int: [4 ×] the
    line's index within its target's window [+] the target's index in
    {!Platform.Target.all} (so [key land 3] names the target). The
    cached and uncached views of a target alias onto the same keys.
    [-1] for a scratchpad or unmapped address. *)

val pp_region : Format.formatter -> region -> unit
