(** Task programs: the abstract instruction stream a simulated core
    executes.

    A program is a static structure of instructions and counted loops; each
    instruction carries the code address it is fetched from, so instruction
    caches and flash prefetch buffers behave as they would for real code
    laid out at those addresses. Loop bodies keep their addresses across
    iterations, giving realistic temporal reuse. *)

type kind =
  | Compute of int  (** busy in the pipeline for [n >= 1] cycles *)
  | Load of int  (** data read at the address *)
  | Store of int  (** data write at the address *)

type instr = { pc : int; kind : kind }

type item = I of instr | Loop of { count : int; body : item list }

type t

val make : name:string -> item list -> t
(** @raise Invalid_argument on a negative loop count or on [Compute n]
    with [n < 1]. *)

val name : t -> string
val items : t -> item list

val digest : t -> Digest.t
(** The program's identity: the MD5 of a fixed-width binary encoding of
    its items (one tag byte per item, every int as 8 bytes, a closing
    tag after each loop body), which decodes back to exactly one item
    list. So [digest a = digest b] iff [items a = items b], up to MD5
    collisions; the name is not part of it. Taken on first use and kept
    in the program.

    A program's digest and {!layout} are filled in lazily, so
    structural [=] and [compare] on programs (or on records that hold
    one) depend on whether they have been taken: compare {!items} or
    digests instead. *)

val seq : pc_base:int -> ?pc_stride:int -> kind list -> item list
(** Lays instruction kinds out at consecutive addresses starting at
    [pc_base] with the given stride (default 4 bytes). *)

val loop : int -> item list -> item
val static_size : t -> int
(** Number of instructions in the program text. *)

val dynamic_length : t -> int
(** Number of instructions executed (loops expanded). *)

val code_footprint : t -> (int * int) list
(** Minimal and maximal pc per contiguous usage; as [(min_pc, max_pc)]
    over all instructions — a single pair list for simple programs. *)

(** {1 Memory layout}

    What a program touches of the memory map, as the static checks
    before a simulation need it ([Analysis.Program_lint]): a walk over
    the program text that visits each loop body once and a zero-count
    loop's not at all. *)

type finding =
  | Unmapped of { fetch : bool; addr : int }
      (** an instruction's fetch address ([fetch]) or data address lies
          outside the TC27x map *)
  | Dfl_fetch of int  (** an instruction at this pc is fetched from the data flash *)
  | Unreachable of int  (** a loop with count 0, with its body's item count *)
  | First_access of Platform.Target.t * Platform.Op.t
      (** the first access to a (target, op) pair *)

type layout = {
  lines : int array;
      (** the shared lines fetched or loaded/stored, as distinct
          {!Memory_map.line_key}s in increasing order *)
  findings : (string list * finding) array;
      (** in program order; each at its path, ["loop<i>"] for the
          [i]-th item of each enclosing loop body (or of the program),
          outermost first — a zero-count loop's path ends in itself *)
  overlaps : int array;
      (** per target, indexed as in {!Platform.Target.all}: the shared
          lines both fetched and loaded/stored *)
}

val layout : t -> layout
(** Taken on first use and kept in the program, like {!digest}: two
    domains asking at once both build it, and both get the one
    published first. The timing-tier counter [tcsim.program.layouts]
    counts the layouts built. *)

(** {1 Execution cursor} *)

module Walker : sig
  type program := t
  type t

  val create : program -> t
  val next : t -> instr option
  (** [None] once the program is exhausted. *)

  val next_or : t -> default:instr -> instr
  (** {!next} without the option: returns [default] (compare it
      physically) once the program is exhausted. *)

  val reset : t -> unit
  val executed : t -> int
  (** Instructions returned since creation / last reset that returned
      [Some]. *)

  (** {2 Loop boundaries}

      Loop frames are numbered by nesting depth, [0] being the program
      itself. *)

  val restarted : t -> int
  (** The frame whose loop began a new iteration during the latest
      {!next_or} — the instruction it returned is that iteration's first
      — or [-1]. An iteration that runs no instruction is no boundary. *)

  val instance : t -> int -> int
  (** The loop instance running in a frame: every entry into a loop,
      also an inner loop re-entered by its enclosing one, gets a fresh
      number. *)

  val iteration_length : t -> int -> int
  (** Instructions the frame's previous iteration executed (all
      iterations of a loop execute the same number); meaningful once
      the frame has {!restarted}. *)

  val iterations_left : t -> int -> int
  (** Iterations the frame's loop has left, the one under way
      included. *)

  val skip_iterations : t -> int -> int -> unit
  (** [skip_iterations w d m], for [1 <= m <= iterations_left w d]: as
      if the iteration under way and the [m - 1] after it had run,
      dropping the instruction already returned from it (and any inner
      loop it entered); {!executed} counts them all. The next
      instruction is the first of the iteration after them, whose start
      is no boundary, or, once [m] reaches {!iterations_left}, whatever
      follows the loop. The frame keeps its {!instance}. *)

  val skip_loop : t -> int -> unit
  (** {!skip_iterations} over every iteration left: leaves the loop. *)
end
