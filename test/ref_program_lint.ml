(* A reference program lint: the [Analysis.Program_lint] that keyed
   shared lines by [(Target.t * int)] in two polymorphic hash tables per
   task, kept as an oracle. The table-per-task rewrite must return the
   same diagnostics in the same order. *)

open Platform
module Diag = Analysis.Diag

type task = Analysis.Program_lint.task = {
  label : string;
  core : int;
  program : Tcsim.Program.t;
}

(* Canonical 32-byte line of a shared-memory address: cached and uncached
   views of the same target alias onto the same physical line, so the key
   is (target, offset within the target window). *)
let sri_line addr =
  match Tcsim.Memory_map.classify_opt addr with
  | Some (Tcsim.Memory_map.Sri (t, cacheable)) ->
    Some (t, Tcsim.Memory_map.line_of addr - Tcsim.Memory_map.base_of t ~cacheable)
  | Some (Tcsim.Memory_map.Dspr | Tcsim.Memory_map.Pspr) | None -> None

let iter_program ~on_instr ~on_empty_loop (p : Tcsim.Program.t) =
  let rec go loc items =
    List.iteri
      (fun i item ->
         match item with
         | Tcsim.Program.I instr -> on_instr loc instr
         | Tcsim.Program.Loop { count; body } ->
           let loc = loc @ [ Printf.sprintf "loop%d" i ] in
           if count = 0 then on_empty_loop loc (List.length body)
           else go loc body)
      items
  in
  go [] (Tcsim.Program.items p)

let check ?scenario tasks =
  let diags = ref [] in
  let emit ?equation severity rule path message =
    diags := Diag.make ?equation severity ~rule ~path message :: !diags
  in
  let zeros =
    match scenario with Some s -> Scenario.zero_pairs s | None -> []
  in
  (* (target, offset) -> tasks touching the line, most recent first *)
  let owners : (Target.t * int, (string * int) list) Hashtbl.t =
    Hashtbl.create 256
  in
  let touch key owner =
    let l = try Hashtbl.find owners key with Not_found -> [] in
    if not (List.mem owner l) then Hashtbl.replace owners key (owner :: l)
  in
  List.iter
    (fun task ->
       let seen_pairs = Hashtbl.create 8 in
       let code_lines = Hashtbl.create 64 and data_lines = Hashtbl.create 64 in
       let note_pair loc t o =
         if
           List.exists (fun (zt, zo) -> Target.equal zt t && Op.equal zo o) zeros
           && not (Hashtbl.mem seen_pairs (t, o))
         then begin
           Hashtbl.replace seen_pairs (t, o) ();
           emit ~equation:"Table 5" Diag.Warning "zero-traffic-mismatch"
             (task.label :: loc)
             (Printf.sprintf
                "accesses (%s, %s), which the scenario's tailoring declares \
                 zero"
                (Target.to_string t) (Op.to_string o))
         end
       in
       let classify_addr loc ~what addr =
         match Tcsim.Memory_map.classify_opt addr with
         | None ->
           emit Diag.Error "address-unmapped" (task.label :: loc)
             (Printf.sprintf "%s address 0x%08X is outside the TC27x map" what
                addr)
         | Some _ -> ()
       in
       let on_instr loc (instr : Tcsim.Program.instr) =
         classify_addr loc ~what:"fetch" instr.Tcsim.Program.pc;
         (match Tcsim.Memory_map.classify_opt instr.Tcsim.Program.pc with
          | Some (Tcsim.Memory_map.Sri (Target.Dfl, _)) ->
            emit ~equation:"Figure 2" Diag.Error "code-from-dfl"
              (task.label :: loc)
              (Printf.sprintf
                 "instruction at 0x%08X fetched from the data flash; code \
                  never targets the DFL"
                 instr.Tcsim.Program.pc)
          | _ -> ());
         (match sri_line instr.Tcsim.Program.pc with
          | Some key ->
            Hashtbl.replace code_lines key ();
            note_pair loc (fst key) Op.Code
          | None -> ());
         match instr.Tcsim.Program.kind with
         | Tcsim.Program.Compute _ -> ()
         | Tcsim.Program.Load addr | Tcsim.Program.Store addr ->
           classify_addr loc ~what:"data" addr;
           (match sri_line addr with
            | Some key ->
              Hashtbl.replace data_lines key ();
              note_pair loc (fst key) Op.Data
            | None -> ())
       in
       let on_empty_loop loc body_len =
         emit Diag.Warning "loop-unreachable" (task.label :: loc)
           (Printf.sprintf
              "loop count is 0: its %d-item body never executes and its \
               accesses vanish from every profile"
              body_len)
       in
       iter_program ~on_instr ~on_empty_loop task.program;
       (* one task fetching and loading/storing the same shared line *)
       let overlap_per_target = Hashtbl.create 4 in
       Hashtbl.iter
         (fun (t, off) () ->
            if Hashtbl.mem data_lines (t, off) then
              Hashtbl.replace overlap_per_target t
                (1 + try Hashtbl.find overlap_per_target t with Not_found -> 0))
         code_lines;
       Hashtbl.iter
         (fun t n ->
            emit Diag.Warning "code-data-overlap" [ task.label ]
              (Printf.sprintf
                 "%d shared %s line(s) both fetched and loaded/stored" n
                 (Target.to_string t)))
         overlap_per_target;
       let owner = (task.label, task.core) in
       Hashtbl.iter (fun key () -> touch key owner) code_lines;
       Hashtbl.iter (fun key () -> touch key owner) data_lines)
    tasks;
  (* cross-core sharing of SRI lines *)
  let conflicts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (t, _off) l ->
       let rec pairs = function
         | [] -> ()
         | (la, ca) :: rest ->
           List.iter
             (fun (lb, cb) ->
                if ca <> cb then begin
                  let a, b = if la < lb then (la, lb) else (lb, la) in
                  Hashtbl.replace conflicts (a, b, t)
                    (1 + try Hashtbl.find conflicts (a, b, t) with Not_found -> 0)
                end)
             rest;
           pairs rest
       in
       pairs l)
    owners;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) conflicts []
  |> List.sort compare
  |> List.iter (fun ((a, b, t), n) ->
      emit Diag.Error "map-overlap" [ a ]
        (Printf.sprintf
           "shares %d %s line(s) with task %s on another core; concurrent \
            tasks must use disjoint 32-byte SRI lines"
           n (Target.to_string t) b));
  List.rev !diags
