(* A reference run-cache key: the [Printf] renderer that
   [Runtime.Run_cache.fingerprint] replaced with direct digit writes,
   kept as an oracle. The two must render byte-identical keys, or every
   entry a persistent cache holds stops matching. *)

open Tcsim

let add_geometry buf = function
  | None -> Buffer.add_string buf "-;"
  | Some g ->
    Printf.bprintf buf "%d/%d/%d;" g.Cache.size_bytes g.Cache.ways
      g.Cache.line_bytes

let add_core_config buf (c : Core_model.config) =
  Buffer.add_string buf
    (match c.Core_model.kind with Core_model.P16 -> "P" | Core_model.E16 -> "E");
  add_geometry buf c.Core_model.icache;
  add_geometry buf c.Core_model.dcache

let add_latency buf lat =
  List.iter
    (fun (target, op) ->
       Printf.bprintf buf "%d/%d/%d;"
         (Platform.Latency.lmax lat target op)
         (Platform.Latency.lmin lat target op)
         (Platform.Latency.min_stall lat target op))
    Platform.Op.valid_pairs;
  Printf.bprintf buf "~%d;" (Platform.Latency.lmu_dirty_lmax lat)

(* Programs are keyed by content — two programs with the same items but
   different names simulate identically. *)
let add_program buf p =
  let rec items list =
    List.iter
      (function
        | Program.I { pc; kind } ->
          (match kind with
           | Program.Compute n -> Printf.bprintf buf "c%d@%x;" n pc
           | Program.Load a -> Printf.bprintf buf "l%x@%x;" a pc
           | Program.Store a -> Printf.bprintf buf "s%x@%x;" a pc)
        | Program.Loop { count; body } ->
          Printf.bprintf buf "L%d[" count;
          items body;
          Buffer.add_string buf "];")
      list
  in
  items (Program.items p)

let add_task buf (t : Machine.task) =
  Printf.bprintf buf "#%d:" t.Machine.core;
  add_program buf t.Machine.program

let fingerprint ~config ~max_cycles ~restart_contenders ~priorities ~trace
    ~kernel ~analysis ~contenders =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s|%d|%b|%b|" (Machine.kernel_to_string kernel) max_cycles
    restart_contenders trace;
  (match priorities with
   | None -> Buffer.add_string buf "-|"
   | Some p ->
     Array.iter (Printf.bprintf buf "%d,") p;
     Buffer.add_char buf '|');
  add_latency buf config.Machine.latency;
  Buffer.add_char buf '|';
  Array.iter (add_core_config buf) config.Machine.cores;
  Buffer.add_char buf '|';
  add_task buf analysis;
  List.iter (add_task buf) contenders;
  Digest.to_hex (Digest.string (Buffer.contents buf))
