open Platform

type region = Dspr | Pspr | Sri of Target.t * bool

let dspr_base = 0x7000_0000
let dspr_size = 120 * 1024
let pspr_base = 0x7010_0000
let pspr_size = 32 * 1024
let pf0_cached_base = 0x8000_0000
let pf1_cached_base = 0x8010_0000
let pf_bank_size = 1024 * 1024
let pf0_uncached_base = 0xA000_0000
let pf1_uncached_base = 0xA010_0000
let lmu_cached_base = 0x9000_0000
let lmu_uncached_base = 0xB000_0000
let lmu_size = 32 * 1024
let dfl_base = 0xAF00_0000
let dfl_size = 384 * 1024
let line_bytes = 32
let line_of addr = addr land lnot (line_bytes - 1)

let in_window addr base size = addr >= base && addr < base + size

(* Region codes, allocation-free for the script compiler: -1 unmapped,
   0 dspr, 1 pspr, otherwise [2 + 2 * target index + cacheable] with
   targets indexed in [Target.all] order. *)
let region_code addr =
  if in_window addr dspr_base dspr_size then 0
  else if in_window addr pspr_base pspr_size then 1
  else if in_window addr pf0_cached_base pf_bank_size then 5
  else if in_window addr pf1_cached_base pf_bank_size then 7
  else if in_window addr pf0_uncached_base pf_bank_size then 4
  else if in_window addr pf1_uncached_base pf_bank_size then 6
  else if in_window addr lmu_cached_base lmu_size then 9
  else if in_window addr lmu_uncached_base lmu_size then 8
  else if in_window addr dfl_base dfl_size then 2
  else -1

let targets = Array.of_list Target.all

let classify_opt addr =
  match region_code addr with
  | -1 -> None
  | 0 -> Some Dspr
  | 1 -> Some Pspr
  | c -> Some (Sri (targets.((c - 2) lsr 1), c land 1 = 1))

let unmapped addr =
  invalid_arg (Printf.sprintf "Memory_map.classify: 0x%x unmapped" addr)

let classify addr =
  match classify_opt addr with Some r -> r | None -> unmapped addr

let base_of target ~cacheable =
  match (target, cacheable) with
  | Target.Pf0, true -> pf0_cached_base
  | Target.Pf0, false -> pf0_uncached_base
  | Target.Pf1, true -> pf1_cached_base
  | Target.Pf1, false -> pf1_uncached_base
  | Target.Lmu, true -> lmu_cached_base
  | Target.Lmu, false -> lmu_uncached_base
  | Target.Dfl, false -> dfl_base
  | Target.Dfl, true ->
    invalid_arg "Memory_map.base_of: data flash has no cacheable view"

let size_of = function
  | Target.Pf0 | Target.Pf1 -> pf_bank_size
  | Target.Lmu -> lmu_size
  | Target.Dfl -> dfl_size

(* [4 * line index within the target window + target index]: cached
   and uncached views of one target alias onto the same line *)
let line_key addr =
  let code = region_code addr in
  if code < 2 then -1
  else
    let rank = (code - 2) lsr 1 in
    let base = base_of targets.(rank) ~cacheable:(code land 1 = 1) in
    ((line_of addr - base) / line_bytes * 4) + rank

let pp_region fmt = function
  | Dspr -> Format.pp_print_string fmt "dspr"
  | Pspr -> Format.pp_print_string fmt "pspr"
  | Sri (t, c) ->
    Format.fprintf fmt "sri:%s%s" (Target.to_string t) (if c then "($)" else "(n$)")
