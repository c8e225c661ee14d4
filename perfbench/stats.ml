(* Summary statistics and the regression rule. *)

(* Linear interpolation between closest ranks, p in [0, 100]. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p /. 100. *. float_of_int (n - 1) in
    let i = Float.to_int pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The tail [n] samples support: the highest percentile of the ladder
   with at least ten samples beyond it. Below 20 samples not even the
   median qualifies; the median is reported then. *)
let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail_percentile n =
  (* with a tolerance: 100 samples leave 9.999... beyond p90 in floats *)
  match List.find_opt (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10. -. 1e-6) ladder with
  | Some p -> p
  | None -> 50.

(* Interquartile range as a share of the median. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ -> (percentile xs 75. -. percentile xs 25.) /. Float.abs (median xs)

(* ------------------------------------------------------------------ *)
(* Regression rule                                                      *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

let better_of_string = function "lower" -> Some Lower | "higher" -> Some Higher | _ -> None

type bound = { better : better; rel : float; floor : float }

(* How far [cand] is worse than [base] (positive = worse). *)
let worse_by b ~base ~cand = match b.better with Lower -> cand -. base | Higher -> base -. cand

(* A metric regresses when the candidate median is worse than the base
   median by more than [rel] of the base, and by more than the absolute
   [floor]. A bound of {rel = 0; floor = 0} flags any worsening, which is
   the rule for failed/attempted. *)
let regressed b ~base ~cand = worse_by b ~base ~cand > Float.max (b.rel *. Float.abs base) b.floor

(* The bound as a share of [base]: [rel], or the floor where that is
   larger. *)
let tolerance b ~base = if b.floor = 0. then b.rel else Float.max b.rel (b.floor /. Float.abs base)

type verdict = Within | Regressed | Unresolved

let verdict_to_string = function Within -> "ok" | Regressed -> "REGRESSED" | Unresolved -> "UNRESOLVED"

(* The verdict on two samples of a metric. Where either sample spreads
   wider than the bound, a change of the bound's size is lost in the
   noise and the metric is unresolved, unless the samples do not overlap:
   every candidate better than every base value (within), or every one
   worse and the medians beyond the bound (regressed). A bound of zero,
   the rule for failed/attempted, compares medians only. *)
let verdict b ~base ~cand =
  let bm = median base and cm = median cand in
  let regressed_ = regressed b ~base:bm ~cand:cm in
  let tol = tolerance b ~base:bm in
  if tol = 0. || (spread base <= tol && spread cand <= tol) then if regressed_ then Regressed else Within
  else
    let all_pairs p = List.for_all (fun c -> List.for_all (fun x -> p (worse_by b ~base:x ~cand:c)) base) cand in
    if all_pairs (fun d -> d < 0.) then Within
    else if regressed_ && all_pairs (fun d -> d > 0.) then Regressed
    else Unresolved

(* setup_s may also worsen by up to this many seconds: short set-ups are
   dominated by process and scheduler noise. *)
let setup_floor_s = 0.05

let failed_ratio_bound = { better = Lower; rel = 0.; floor = 0. }
