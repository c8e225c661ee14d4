type level = High | Medium | Low

let all_levels = [ High; Medium; Low ]
let level_to_string = function High -> "H-Load" | Medium -> "M-Load" | Low -> "L-Load"

(* Accepts both the paper's display names and the bare serve-protocol
   levels, case-insensitively. *)
let level_of_string s =
  match String.lowercase_ascii s with
  | "h-load" | "high" | "h" -> Some High
  | "m-load" | "medium" | "m" -> Some Medium
  | "l-load" | "low" | "l" -> Some Low
  | _ -> None

(* Disjoint per-task windows: the LMU task window is 10 KiB (see
   Control_loop), so three slots fit the 32 KiB LMU; pf code windows are
   far apart. *)
let lmu_region_of_slot slot = slot * 10 * 1024
let pf_region_of_slot slot = 0x8000 + (slot * 0x40000)

let params ~variant ~level ~region_slot =
  let base = Control_loop.default_params in
  let common =
    {
      base with
      Control_loop.lmu_region = lmu_region_of_slot region_slot;
      pf_region = pf_region_of_slot region_slot;
      seed = 1000 + (17 * region_slot);
    }
  in
  (* Load levels: roughly constant duration (compute padding grows as SRI
     traffic shrinks), strongly decreasing SRI request counts. *)
  let scale =
    match level with
    | High ->
      {
        common with
        Control_loop.iterations = 2 * base.Control_loop.iterations;
        table_walk = 320;
        local_compute = 4_000;
      }
    | Medium ->
      {
        common with
        Control_loop.iterations = base.Control_loop.iterations;
        table_walk = 280;
        code_lines = 640;
        local_compute = 22_000;
      }
    | Low ->
      {
        common with
        Control_loop.iterations = base.Control_loop.iterations;
        table_walk = 160;
        (* fits the 16 KiB I-cache: only cold fetch misses *)
        code_lines = 448;
        local_compute = 30_000;
      }
  in
  match variant with
  | Control_loop.S1 -> scale
  | Control_loop.S2 ->
    (* Scenario 2 contenders carry the same structure with the bigger code
       footprint of the scenario's application variant. *)
    {
      scale with
      Control_loop.code_lines =
        (match level with High -> 1152 | Medium -> 768 | Low -> 448);
      signal_words = 32;
      state_words = 32;
    }

(* One shared program per (variant, level, slot), slots 0..2: the three
   task windows [lmu_region_of_slot] fits in the LMU. *)
let slots = 3
let bundled = Array.init (2 * 3 * slots) (fun _ -> Atomic.make None)

let make ~variant ~level ?(region_slot = 1) () =
  if region_slot < 0 || region_slot >= slots then
    invalid_arg
      (Printf.sprintf "Load_gen.make: region slot %d outside 0..%d" region_slot
         (slots - 1));
  let v = match variant with Control_loop.S1 -> 0 | Control_loop.S2 -> 1 in
  let l = match level with High -> 0 | Medium -> 1 | Low -> 2 in
  Control_loop.shared
    bundled.((((v * 3) + l) * slots) + region_slot)
    (fun () -> Control_loop.build variant (params ~variant ~level ~region_slot))
