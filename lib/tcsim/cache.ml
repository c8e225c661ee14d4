type geometry = { size_bytes : int; ways : int; line_bytes : int }

let tc16p_icache = { size_bytes = 16 * 1024; ways = 2; line_bytes = 32 }
let tc16p_dcache = { size_bytes = 8 * 1024; ways = 2; line_bytes = 32 }
let tc16e_icache = { size_bytes = 8 * 1024; ways = 2; line_bytes = 32 }

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable stamp : int }

type t = {
  geom : geometry;
  sets : line array array;
  nsets : int;
  set_shift : int; (* log2 nsets *)
  mutable clock : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create geom =
  if not (is_pow2 geom.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if geom.ways < 1 || geom.size_bytes < 1 then invalid_arg "Cache.create: bad geometry";
  if geom.size_bytes mod (geom.ways * geom.line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways*line";
  let nsets = geom.size_bytes / (geom.ways * geom.line_bytes) in
  if not (is_pow2 nsets) then invalid_arg "Cache.create: set count must be a power of two";
  let sets =
    Array.init nsets (fun _ ->
        Array.init geom.ways (fun _ ->
            { tag = 0; valid = false; dirty = false; stamp = 0 }))
  in
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    geom;
    sets;
    nsets;
    set_shift = log2 nsets 0;
    clock = 0;
    hit_count = 0;
    miss_count = 0;
  }

type outcome = Hit | Miss of { victim : int option }

let locate c addr =
  let line_addr = addr / c.geom.line_bytes in
  let set_idx = line_addr land (c.nsets - 1) in
  let tag = line_addr lsr c.set_shift in
  (set_idx, tag)

let hit = -1
let clean_miss = -2

(* Loops rather than closures and options: the script compiler calls
   this once per cacheable access and must not allocate. *)
let access_code c ~addr ~write =
  c.clock <- c.clock + 1;
  let line_addr = addr / c.geom.line_bytes in
  let set_idx = line_addr land (c.nsets - 1) in
  let tag = line_addr lsr c.set_shift in
  let set = c.sets.(set_idx) in
  let ways = Array.length set in
  let w = ref 0 in
  while !w < ways && not (set.(!w).valid && set.(!w).tag = tag) do incr w done;
  if !w < ways then begin
    let l = set.(!w) in
    l.stamp <- c.clock;
    if write then l.dirty <- true;
    c.hit_count <- c.hit_count + 1;
    hit
  end
  else begin
    c.miss_count <- c.miss_count + 1;
    (* choose victim: first invalid way, else least-recently used *)
    let v = ref 0 in
    for i = 1 to ways - 1 do
      let l = set.(i) and b = set.(!v) in
      if not l.valid then begin if b.valid then v := i end
      else if b.valid && l.stamp < b.stamp then v := i
    done;
    let v = set.(!v) in
    let victim =
      if v.valid && v.dirty then
        (* reconstruct the victim's line-aligned address *)
        ((v.tag * c.nsets) + set_idx) * c.geom.line_bytes
      else clean_miss
    in
    v.tag <- tag;
    v.valid <- true;
    v.dirty <- write;
    v.stamp <- c.clock;
    victim
  end

let access c ~addr ~write =
  match access_code c ~addr ~write with
  | -1 -> Hit
  | -2 -> Miss { victim = None }
  | a -> Miss { victim = Some a }

let probe c ~addr =
  let set_idx, tag = locate c addr in
  Array.exists (fun l -> l.valid && l.tag = tag) c.sets.(set_idx)

let lines c = c.nsets * c.geom.ways

(* Selection by stamp, newest first: valid stamps are distinct, and
   [ways] is small. Loops, not closures: a loop boundary of the script
   compiler calls this and must not allocate. *)
let snapshot c buf ~pos =
  let ways = c.geom.ways in
  for s = 0 to c.nsets - 1 do
    let set = c.sets.(s) and bound = ref max_int in
    for k = 0 to ways - 1 do
      let best = ref (-1) in
      for w = 0 to ways - 1 do
        let l = set.(w) in
        if l.valid && l.stamp < !bound && (!best < 0 || l.stamp > set.(!best).stamp)
        then best := w
      done;
      buf.(pos + (s * ways) + k) <-
        (if !best < 0 then -1
         else begin
           let l = set.(!best) in
           bound := l.stamp;
           (l.tag lsl 1) lor Bool.to_int l.dirty
         end)
    done
  done

let flush c =
  Array.iter
    (Array.iter (fun l ->
         l.valid <- false;
         l.dirty <- false;
         l.stamp <- 0))
    c.sets

let geometry c = c.geom
let hits c = c.hit_count
let misses c = c.miss_count
