open Platform
open Tcsim

type variant = S1 | S2

type params = {
  iterations : int;
  signal_words : int;
  state_words : int;
  table_walk : int;
  code_lines : int;
  compute_per_line : int;
  local_compute : int;
  cache_data_lines : int;
  const_lines : int;
  lmu_region : int;
  pf_region : int;
  seed : int;
}

let default_params =
  {
    iterations = 40;
    signal_words = 48;
    state_words = 48;
    table_walk = 320;
    code_lines = 768;
    compute_per_line = 2;
    local_compute = 20_000;
    cache_data_lines = 128;
    const_lines = 64;
    lmu_region = 0;
    pf_region = 0x8000;
    seed = 42;
  }

let line = Memory_map.line_bytes
let pspr = Memory_map.pspr_base
let dspr = Memory_map.dspr_base

(* Task-local LMU window layout (all offsets within [lmu_region,
   lmu_region + 10 KiB) — three task windows fit the 32 KiB LMU, one per
   core):
     [0, 2K)   non-cacheable signals + state
     [2K, 6K)  non-cacheable shared tables (two 2 KiB structures)
     [6K, 10K) cacheable working set (S2 only)                        *)
let nq_io_off = 0
let nq_tables_off = 2 * 1024
let nq_tables_size = 4 * 1024
let c_data_off = 6 * 1024
let lmu_window = 10 * 1024

let check_fits p =
  if p.lmu_region < 0 || p.lmu_region + lmu_window > Memory_map.lmu_size then
    invalid_arg "Control_loop: LMU window exceeds the 32 KiB LMU";
  if p.cache_data_lines * line > 4 * 1024 then
    invalid_arg "Control_loop: cacheable working set beyond its 4 KiB slot";
  let bank_lines = (p.code_lines + 1) / 2 in
  let code_bytes = (bank_lines * line) + (p.const_lines * line) in
  if p.pf_region + code_bytes > Memory_map.pf_bank_size then
    invalid_arg "Control_loop: code window exceeds the pf bank"

let build variant p =
  check_fits p;
  let rng = Rng.create ~seed:p.seed in
  let lmu_nc off = Memory_map.lmu_uncached_base + p.lmu_region + off in
  let lmu_c off = Memory_map.lmu_cached_base + p.lmu_region + off in
  let pf_code bank i =
    (if bank = 0 then Memory_map.pf0_cached_base else Memory_map.pf1_cached_base)
    + p.pf_region + (i * line)
  in
  let bank_lines = (p.code_lines + 1) / 2 in
  (* The pf1 constant block is displaced by half the constant footprint so
     pf0 and pf1 constants occupy disjoint D$ sets (with the cacheable LMU
     working set in the other way, every set holds at most two live lines:
     cold misses only, the paper's small-DMC / zero-DMD signature). *)
  let pf_const bank i =
    (if bank = 0 then Memory_map.pf0_cached_base else Memory_map.pf1_cached_base)
    + p.pf_region + (bank_lines * line)
    + (bank * (p.const_lines / 2) * line)
    + (i * line)
  in
  (* --- acquisition: copy sensor words into local state (PSPR code) --- *)
  let acquisition =
    List.concat
      (List.init p.signal_words (fun i ->
           [
             Program.I
               { Program.pc = pspr + (8 * i); kind = Program.Load (lmu_nc (nq_io_off + (4 * i))) };
             Program.I
               { Program.pc = pspr + (8 * i) + 4; kind = Program.Store (dspr + (4 * i)) };
           ]))
  in
  (* --- compute: code fetched from pf0/pf1, one line per instruction ---
     Control-flow in real applications is branchy, so successive misses
     rarely hit the flash prefetch buffer: shuffling the line order makes
     the per-miss stall sit near the non-streaming latency, reproducing
     the paper's Table 6 signature of PS >> 6 x PM. *)
  let compute_code =
    let lines =
      Array.of_list
        (List.concat_map
           (fun bank -> List.init bank_lines (fun i -> pf_code bank i))
           [ 0; 1 ])
    in
    for i = Array.length lines - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let tmp = lines.(i) in
      lines.(i) <- lines.(j);
      lines.(j) <- tmp
    done;
    Array.to_list
      (Array.map
         (fun pc -> Program.I { Program.pc; kind = Program.Compute p.compute_per_line })
         lines)
  in
  (* --- table walks: data traffic over the two shared structures --- *)
  let table_access i =
    match variant with
    | S1 ->
      (* both structures non-cacheable in the LMU *)
      let off = nq_tables_off + (Rng.int rng (nq_tables_size / 4) * 4) in
      if i mod 4 = 3 then Program.Store (lmu_nc off) else Program.Load (lmu_nc off)
    | S2 ->
      (* spread over: cacheable LMU working set, cacheable pf constants,
         and a small residue of non-cacheable LMU I/O *)
      (match i mod 8 with
       | 0 | 1 | 2 | 3 ->
         Program.Load (lmu_c (c_data_off + (Rng.int rng p.cache_data_lines * line)))
       | 4 | 5 ->
         Program.Load (pf_const (i mod 2) (Rng.int rng (max 1 (p.const_lines / 2))))
       | 6 -> Program.Load (lmu_nc (nq_io_off + (Rng.int rng 256 * 4)))
       | _ -> Program.Store (lmu_nc (nq_io_off + 1024 + (Rng.int rng 128 * 4))))
  in
  let table_walks =
    List.init p.table_walk (fun i ->
        Program.I { Program.pc = pspr + 0x1000 + (4 * (i mod 512)); kind = table_access i })
  in
  (* --- status update: publish state words (PSPR code) --- *)
  let update =
    List.init p.state_words (fun i ->
        Program.I
          {
            Program.pc = pspr + 0x2000 + (4 * i);
            kind = Program.Store (lmu_nc (nq_io_off + 1024 + (4 * i)));
          })
  in
  (* --- local number crunching (PSPR code, no SRI traffic) --- *)
  let local_crunch =
    if p.local_compute <= 0 then []
    else begin
      let chunk = 1 + (p.local_compute / 4) in
      List.init 4 (fun i ->
          Program.I
            { Program.pc = pspr + 0x3000 + (4 * i); kind = Program.Compute chunk })
    end
  in
  let period = acquisition @ compute_code @ table_walks @ update @ local_crunch in
  let name =
    Printf.sprintf "control_loop_%s"
      (match variant with S1 -> "sc1" | S2 -> "sc2")
  in
  Program.make ~name [ Program.loop p.iterations period ]


(* Scenario 2 doubles the flash-resident code and shifts most data traffic
   to cacheable memory (paper Table 6: PM roughly doubles, DS collapses,
   DMC small, DMD zero). *)
let app_params variant =
  match variant with
  | S1 -> default_params
  | S2 ->
    {
      default_params with
      code_lines = 1536;
      table_walk = 240;
      signal_words = 32;
      state_words = 32;
      local_compute = 16_000;
    }

(* Bundled programs are values: each is built on its first request and
   then shared. A cell is published with compare-and-set, not [Lazy]
   (forcing one suspension from two domains raises [Lazy.Undefined]); a
   domain that loses the race drops its copy, which has the same items,
   and returns the winner's. *)
let shared cell build =
  match Atomic.get cell with
  | Some p -> p
  | None ->
    let p = build () in
    if Atomic.compare_and_set cell None (Some p) then p
    else Option.get (Atomic.get cell)

let apps = [| Atomic.make None; Atomic.make None |]

let app variant =
  shared
    apps.(match variant with S1 -> 0 | S2 -> 1)
    (fun () -> build variant (app_params variant))

let app_input_variants variant ~n =
  if n < 1 then invalid_arg "Control_loop.app_input_variants: n < 1";
  let base = app_params variant in
  List.init n (fun i -> build variant { base with seed = base.seed + (101 * i) })

let variant_of_scenario (s : Scenario.t) =
  if s.Scenario.name = "scenario2" then S2 else S1

let pp_params fmt p =
  Format.fprintf fmt
    "@[<v>iterations=%d signal=%d state=%d walk=%d code_lines=%d@,\
     compute/line=%d local=%d cache_lines=%d const_lines=%d@,\
     lmu_region=0x%x pf_region=0x%x seed=%d@]"
    p.iterations p.signal_words p.state_words p.table_walk p.code_lines
    p.compute_per_line p.local_compute p.cache_data_lines p.const_lines
    p.lmu_region p.pf_region p.seed
