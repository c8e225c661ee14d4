(* Host-speed probe.

   A small shared VM does not run at one speed. On the 2-vCPU host this
   benchmark was written on, identical batches of work took from 1x to
   2x their quiet time, for seconds to minutes at a time: neighbours
   compete for the core, the caches and memory, and at times took 30%
   of the vCPUs' time outright (steal). Across ten 15-second runs of one
   workload the unscaled metrics spread by up to 45%, and no statistic
   taken inside a run removes a slowdown that covers most of it.

   So the harness times fixed loops, written here, between operations,
   and scales every end-to-end time by the host's speed around it: a
   time reads as what it would have taken with the host at the loops'
   reference speed. Which resource the neighbours contend for changes
   from minute to minute, and no single loop slowed as the program did
   in every period, so there are four, each leaning on one resource:
   the core (short-lived records, lookups in a table that fits the L2
   cache), memory bandwidth (a sequential read of 8 MB), the major heap
   (a list long enough to be promoted) and the integer divider (GCDs).
   A sample is their mean slowdown. In the same busy hour, the widest
   scaled spread of a timed metric was 17% (README, Noise). The loops are part of the
   benchmark, so a change to the program cannot move them, except one
   that changes the GC settings of the whole process. *)

let table = Array.init 65536 (fun i -> (i * 40503) land 65535)

type node = { key : int; value : int; next : node option }

let records () =
  let last = ref None and x = ref 1 in
  for i = 0 to 50_000 do
    x := Array.unsafe_get table (!x land 65535) + i;
    last := Some { key = !x; value = i; next = (if !x land 7 = 0 then None else !last) };
    if !x land 3 = 1 then match !last with Some { next = Some n; _ } -> x := !x + n.key | _ -> ()
  done;
  Sys.opaque_identity !last

let stream = Array.init (1 lsl 20) (fun i -> i land 1023)

let sweep () =
  let acc = ref 0 in
  for i = 0 to Array.length stream - 1 do
    acc := !acc + Array.unsafe_get stream i
  done;
  Sys.opaque_identity !acc

let promoted () =
  let l = ref [] in
  for i = 0 to 30_000 do
    l := (i, i + 1) :: !l
  done;
  Sys.opaque_identity (List.length !l)

let gcds () =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let acc = ref 0 in
  for i = 1 to 6000 do
    let a = ((i * 7919) land 0xFFFF) + 1 and b = ((i * 104729) land 0xFFF) + 1 in
    acc := !acc + gcd a b + (a / b)
  done;
  Sys.opaque_identity !acc

(* Each loop with its reference time: the 10th percentile of its times
   over 1840 samples taken during runs of the workloads on a 2-vCPU Xeon
   VM (Firecracker) *)
let loops =
  [
    ((fun () -> ignore (records ())), 0.43);
    ((fun () -> ignore (sweep ())), 0.75);
    ((fun () -> ignore (promoted ())), 0.29);
    ((fun () -> ignore (gcds ())), 0.38);
  ]

(* [slowdown] is 1 at the reference speed, 2 at half of it *)
type sample = { at : float; slowdown : float }

(* newest first *)
let samples : sample list ref = ref []
let last_at = ref neg_infinity

(* One sample: each loop's median time over three runs, as a share of its
   reference, averaged over the loops. It starts from an empty minor
   heap, so the workload's live young data does not count. *)
let sample () =
  Gc.minor ();
  let slowdown (loop, reference_ms) =
    let times =
      Array.init 3 (fun _ ->
          let t0 = Unix.gettimeofday () in
          loop ();
          (Unix.gettimeofday () -. t0) *. 1e3)
    in
    Array.sort compare times;
    times.(1) /. reference_ms
  in
  let slowdown = Stats.mean (List.map slowdown loops) in
  let at = Unix.gettimeofday () in
  samples := { at; slowdown } :: !samples;
  last_at := at

(* A sample between operations, at most one per [gap_s]: about 6 ms of
   probing per 100 ms of work. *)
let gap_s = 0.1
let tick () = if Unix.gettimeofday () -. !last_at >= gap_s then sample ()

type timeline = sample array

let timeline () : timeline = Array.of_list (List.rev !samples)
let median_slowdown (tl : timeline) = Stats.median (Array.to_list (Array.map (fun s -> s.slowdown) tl))

(* first index in [tl] whose sample satisfies [p], which is monotone *)
let first tl p =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if p tl.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length tl)

(* The scale for a time spent in [a, b]: one over the median slowdown of
   the last sample taken at or before [a], every one inside, and the
   first at or after [b]. 1 without samples. *)
let scale (tl : timeline) a b =
  let n = Array.length tl in
  if n = 0 then 1.
  else
    let i = max 0 (first tl (fun s -> s.at > a) - 1) in
    let j = min (n - 1) (first tl (fun s -> s.at >= b)) in
    let j = max i j in
    1. /. Stats.median (List.init (j - i + 1) (fun k -> tl.(i + k).slowdown))
