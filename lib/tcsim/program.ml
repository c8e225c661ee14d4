type kind = Compute of int | Load of int | Store of int

type instr = { pc : int; kind : kind }
type item = I of instr | Loop of { count : int; body : item list }

(* Compiled form: loops flattened to arrays for a fast cursor. *)
type citem = CI of instr | CLoop of int * citem array

type finding =
  | Unmapped of { fetch : bool; addr : int }
  | Dfl_fetch of int
  | Unreachable of int
  | First_access of Platform.Target.t * Platform.Op.t

type layout = {
  lines : int array;
  findings : (string list * finding) array;
  overlaps : int array;
}

(* [digest] is [""] and [layout] [None] until first asked for (see
   {!digest} and {!layout}). *)
type t = {
  name : string;
  items : item list;
  compiled : citem array;
  mutable digest : string;
  layout : layout option Atomic.t;
}

let rec compile items =
  items
  |> List.map (function
      | I i -> CI i
      | Loop { count; body } -> CLoop (count, compile body))
  |> Array.of_list

let rec validate items =
  List.iter
    (function
      | I { kind = Compute n; _ } when n < 1 ->
        invalid_arg "Program.make: Compute below 1 cycle"
      | I _ -> ()
      | Loop { count; body } ->
        if count < 0 then invalid_arg "Program.make: negative loop count";
        validate body)
    items

let make ~name items =
  validate items;
  { name; items; compiled = compile items; digest = ""; layout = Atomic.make None }

let name p = p.name
let items p = p.items

(* Fixed-width binary encoding: one tag byte per item, every int as 8
   little-endian bytes, and a closing tag after each loop body. A tag
   fixes the length of what follows it and a body ends only at its
   closing tag, so the bytes decode back to exactly one item list. *)
let encode items =
  let buf = Buffer.create 4096 in
  let tagged tag n =
    Buffer.add_char buf tag;
    Buffer.add_int64_le buf (Int64.of_int n)
  in
  let rec go items =
    List.iter
      (function
        | I { pc; kind } ->
          (match kind with
           | Compute n -> tagged 'c' n
           | Load a -> tagged 'l' a
           | Store a -> tagged 's' a);
          Buffer.add_int64_le buf (Int64.of_int pc)
        | Loop { count; body } ->
          tagged 'L' count;
          go body;
          Buffer.add_char buf ']')
      items
  in
  go items;
  Buffer.contents buf

(* Taken on first use, not in [make]: most programs built to be
   generated, linted or shown are never keyed. Two domains asking at
   once both compute it and write the same string. *)
let digest p =
  match p.digest with
  | "" ->
    let d = Digest.string (encode p.items) in
    p.digest <- d;
    d
  | d -> d

let targets = Array.of_list Platform.Target.all
let fetched = 1
let accessed = 2

(* Line indices lie below [line_slots]: no target's window holds more
   lines than a program flash bank. *)
let line_slots =
  List.fold_left (fun m t -> max m (Memory_map.size_of t)) 0 Platform.Target.all
  / Memory_map.line_bytes

(* layouts built; a domain that loses the race to publish one built it
   too, so the count depends on scheduling *)
let m_layouts = Obs.Metrics.counter ~timing:true "tcsim.program.layouts"

(* One walk over the program text, visiting each loop body once and a
   zero-count loop's not at all. *)
let build_layout p =
  Obs.Metrics.incr m_layouts;
  (* per line index, one byte: two bits (fetched, accessed) for each of
     the four targets, at [2 * rank] — the line's four keys *)
  let masks = Bytes.make line_slots '\000' in
  let nlines = ref 0 and last = ref (-1) in
  let overlaps = Array.make (Array.length targets) 0 in
  let seen = Array.make (2 * Array.length targets) false (* (target, op) pairs *) in
  let findings = ref [] in
  (* [loops]: indices of the enclosing loops, innermost first *)
  let found loops f = findings := (List.rev_map (Printf.sprintf "loop%d") loops, f) :: !findings in
  let note loops op bit key =
    if key >= 0 then begin
      let i = key lsr 2 and shift = 2 * (key land 3) in
      let b = Char.code (Bytes.get masks i) in
      let m = (b lsr shift) land 3 in
      if m land bit = 0 then begin
        if m = 0 then begin
          incr nlines;
          if i > !last then last := i
        end
        else
          (* the other bit was set: fetched and accessed *)
          overlaps.(key land 3) <- overlaps.(key land 3) + 1;
        Bytes.set masks i (Char.chr (b lor (bit lsl shift)))
      end;
      let pair = (2 * (key land 3)) + Platform.Op.rank op in
      if not seen.(pair) then begin
        seen.(pair) <- true;
        found loops (First_access (targets.(key land 3), op))
      end
    end
  in
  let on_instr loops { pc; kind } =
    if Memory_map.region_code pc < 0 then found loops (Unmapped { fetch = true; addr = pc });
    let key = Memory_map.line_key pc in
    if key >= 0 && targets.(key land 3) = Platform.Target.Dfl then found loops (Dfl_fetch pc);
    note loops Platform.Op.Code fetched key;
    match kind with
    | Compute _ -> ()
    | Load addr | Store addr ->
      if Memory_map.region_code addr < 0 then found loops (Unmapped { fetch = false; addr });
      note loops Platform.Op.Data accessed (Memory_map.line_key addr)
  in
  let rec walk loops items =
    List.iteri
      (fun i -> function
         | I instr -> on_instr loops instr
         | Loop { count = 0; body } -> found (i :: loops) (Unreachable (List.length body))
         | Loop { body; _ } -> walk (i :: loops) body)
      items
  in
  walk [] p.items;
  let lines = Array.make !nlines 0 and n = ref 0 in
  for i = 0 to !last do
    let b = Char.code (Bytes.get masks i) in
    if b <> 0 then
      for rank = 0 to 3 do
        if (b lsr (2 * rank)) land 3 <> 0 then begin
          lines.(!n) <- (4 * i) + rank;
          incr n
        end
      done
  done;
  { lines; findings = Array.of_list (List.rev !findings); overlaps }

(* Taken on first use, like [digest]; a domain that loses the race to
   publish drops its copy, which is equal, and returns the winner's. *)
let layout p =
  match Atomic.get p.layout with
  | Some l -> l
  | None ->
    let l = build_layout p in
    if Atomic.compare_and_set p.layout None (Some l) then l
    else Option.get (Atomic.get p.layout)

let seq ~pc_base ?(pc_stride = 4) kinds =
  List.mapi (fun i k -> I { pc = pc_base + (i * pc_stride); kind = k }) kinds

let loop count body = Loop { count; body }

let static_size p =
  let rec go items =
    List.fold_left
      (fun acc -> function I _ -> acc + 1 | Loop { body; _ } -> acc + go body)
      0 items
  in
  go p.items

let dynamic_length p =
  let rec go items =
    List.fold_left
      (fun acc -> function
         | I _ -> acc + 1
         | Loop { count; body } -> acc + (count * go body))
      0 items
  in
  go p.items

let code_footprint p =
  let min_pc = ref max_int and max_pc = ref min_int in
  let rec go items =
    List.iter
      (function
        | I { pc; _ } ->
          if pc < !min_pc then min_pc := pc;
          if pc > !max_pc then max_pc := pc
        | Loop { body; _ } -> go body)
      items
  in
  go p.items;
  if !min_pc > !max_pc then [] else [ (!min_pc, !max_pc) ]

module Walker = struct
  type program = t

  (* [remaining] counts loop iterations left for this frame, the one
     under way included. Frames live in a reused array (entries above
     [depth] are spare), so walking allocates nothing once the deepest
     nesting has been seen. [id] numbers loop instances: a re-pushed
     inner loop gets a fresh one. [mark] is [count] when the current
     iteration began, [iter_len] the previous iteration's length. *)
  type frame = {
    mutable body : citem array;
    mutable idx : int;
    mutable remaining : int;
    mutable id : int;
    mutable mark : int;
    mutable iter_len : int;
  }

  type t = {
    prog : program;
    mutable frames : frame array;
    mutable depth : int;
    mutable count : int;
    mutable ids : int;  (* loop instances pushed so far *)
    mutable restarted : int;  (* see [restarted] *)
  }

  let blank () = { body = [||]; idx = 0; remaining = 0; id = 0; mark = 0; iter_len = 0 }

  let create prog =
    let f = blank () in
    f.body <- prog.compiled;
    f.remaining <- 1;
    { prog; frames = [| f |]; depth = 1; count = 0; ids = 0; restarted = -1 }

  let reset w =
    let f = w.frames.(0) in
    f.body <- w.prog.compiled;
    f.idx <- 0;
    f.remaining <- 1;
    w.depth <- 1;
    w.count <- 0;
    w.restarted <- -1

  let push w body remaining =
    let n = Array.length w.frames in
    if w.depth = n then
      w.frames <- Array.append w.frames (Array.init n (fun _ -> blank ()));
    let f = w.frames.(w.depth) in
    f.body <- body;
    f.idx <- 0;
    f.remaining <- remaining;
    w.ids <- w.ids + 1;
    f.id <- w.ids;
    f.mark <- w.count;
    w.depth <- w.depth + 1

  let rec step w ~default =
    if w.depth = 0 then default
    else begin
      let frame = w.frames.(w.depth - 1) in
      if frame.idx >= Array.length frame.body then begin
        frame.remaining <- frame.remaining - 1;
        if frame.remaining > 0 then begin
          frame.idx <- 0;
          frame.iter_len <- w.count - frame.mark;
          frame.mark <- w.count;
          w.restarted <- w.depth - 1
        end
        else begin
          w.depth <- w.depth - 1;
          (* restarted and ended within one step: its iterations ran
             no instruction, so there is no boundary to report *)
          if w.restarted >= w.depth then w.restarted <- -1
        end;
        step w ~default
      end
      else begin
        let item = frame.body.(frame.idx) in
        frame.idx <- frame.idx + 1;
        match item with
        | CI i ->
          w.count <- w.count + 1;
          i
        | CLoop (count, body) ->
          if count > 0 && Array.length body > 0 then push w body count;
          step w ~default
      end
    end

  let next_or w ~default =
    w.restarted <- -1;
    step w ~default

  let sentinel = { pc = -1; kind = Compute 1 }

  let next w =
    let i = next_or w ~default:sentinel in
    if i == sentinel then None else Some i

  let executed w = w.count
  let restarted w = w.restarted
  let instance w d = w.frames.(d).id
  let iteration_length w d = w.frames.(d).iter_len
  let iterations_left w d = w.frames.(d).remaining

  let skip_iterations w d m =
    let f = w.frames.(d) in
    w.count <- f.mark + (m * f.iter_len);
    w.restarted <- -1;
    if m < f.remaining then begin
      f.remaining <- f.remaining - m;
      f.idx <- 0;
      f.mark <- w.count;
      w.depth <- d + 1
    end
    else w.depth <- d

  let skip_loop w d = skip_iterations w d w.frames.(d).remaining
end
