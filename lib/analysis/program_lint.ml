open Platform

type task = { label : string; core : int; program : Tcsim.Program.t }

let targets = Array.of_list Target.all

(* Shared 32-byte lines as ints, [4 * line index within the target window
   + target rank]: cached and uncached views of the same target alias
   onto the same physical line. [-1] for an address with no SRI line. *)
let line_key addr =
  let code = Tcsim.Memory_map.region_code addr in
  if code < 2 then -1
  else
    let rank = (code - 2) lsr 1 in
    let base =
      Tcsim.Memory_map.base_of targets.(rank) ~cacheable:(code land 1 = 1)
    in
    ((Tcsim.Memory_map.line_of addr - base) / Tcsim.Memory_map.line_bytes * 4)
    + rank

let target_of_key key = targets.(key land 3)

(* keys are small non-negative ints already spread over their low bits *)
module Lines = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash key = key
  end)

(* One table of lines serves every task: [mask] says how task number
   [task] — the last to touch the line — fetches ([fetched]) and/or
   loads/stores ([accessed]) it; [owners] are all tasks that touched it,
   most recent first. *)
type line = {
  mutable task : int;
  mutable mask : int;
  mutable owners : (string * int) list;
}

let fetched = 1
let accessed = 2

(* the order [code-data-overlap] has always reported targets in *)
let overlap_order = Target.[ Pf1; Lmu; Dfl; Pf0 ]

(* (target, op) pairs as [2 * target rank + op rank] *)
let pair_index t o = (2 * Target.rank t) + Op.rank o

let check ?scenario tasks =
  let diags = ref [] in
  let emit ?equation severity rule path message =
    diags := Diag.make ?equation severity ~rule ~path message :: !diags
  in
  let zero = Array.make 8 false in
  Option.iter
    (fun s ->
       List.iter (fun (t, o) -> zero.(pair_index t o) <- true) (Scenario.zero_pairs s))
    scenario;
  let lines =
    Lines.create
      (List.fold_left
         (fun n t -> n + Tcsim.Program.static_size t.program)
         0 tasks)
  in
  List.iteri
    (fun index task ->
       let owner = (task.label, task.core) in
       let overlaps = Array.make (Array.length targets) 0 in
       let seen_pairs = Array.make 8 false in
       (* [loops]: indices of the enclosing loops, innermost first *)
       let path loops =
         task.label :: List.rev_map (Printf.sprintf "loop%d") loops
       in
       let note loops op bit key =
         if key >= 0 then begin
           let line =
             match Lines.find_opt lines key with
             | Some line ->
               if line.task <> index then begin
                 line.task <- index;
                 line.mask <- 0;
                 if not (List.mem owner line.owners) then
                   line.owners <- owner :: line.owners
               end;
               line
             | None ->
               let line = { task = index; mask = 0; owners = [ owner ] } in
               Lines.add lines key line;
               line
           in
           if line.mask land bit = 0 then begin
             line.mask <- line.mask lor bit;
             (* one task fetching and loading/storing the same line *)
             if line.mask = fetched lor accessed then
               overlaps.(key land 3) <- overlaps.(key land 3) + 1
           end;
           let t = target_of_key key in
           let p = pair_index t op in
           if zero.(p) && not seen_pairs.(p) then begin
             seen_pairs.(p) <- true;
             emit ~equation:"Table 5" Diag.Warning "zero-traffic-mismatch"
               (path loops)
               (Printf.sprintf
                  "accesses (%s, %s), which the scenario's tailoring declares \
                   zero"
                  (Target.to_string t) (Op.to_string op))
           end
         end
       in
       let check_mapped loops ~what addr =
         if Tcsim.Memory_map.region_code addr < 0 then
           emit Diag.Error "address-unmapped" (path loops)
             (Printf.sprintf "%s address 0x%08X is outside the TC27x map" what
                addr)
       in
       let on_instr loops { Tcsim.Program.pc; kind } =
         check_mapped loops ~what:"fetch" pc;
         let key = line_key pc in
         if key >= 0 && target_of_key key = Target.Dfl then
           emit ~equation:"Figure 2" Diag.Error "code-from-dfl" (path loops)
             (Printf.sprintf
                "instruction at 0x%08X fetched from the data flash; code \
                 never targets the DFL"
                pc);
         note loops Op.Code fetched key;
         match kind with
         | Tcsim.Program.Compute _ -> ()
         | Tcsim.Program.Load addr | Tcsim.Program.Store addr ->
           check_mapped loops ~what:"data" addr;
           note loops Op.Data accessed (line_key addr)
       in
       let rec walk loops items =
         List.iteri
           (fun i -> function
              | Tcsim.Program.I instr -> on_instr loops instr
              | Tcsim.Program.Loop { count = 0; body } ->
                emit Diag.Warning "loop-unreachable" (path (i :: loops))
                  (Printf.sprintf
                     "loop count is 0: its %d-item body never executes and \
                      its accesses vanish from every profile"
                     (List.length body))
              | Tcsim.Program.Loop { body; _ } -> walk (i :: loops) body)
           items
       in
       walk [] (Tcsim.Program.items task.program);
       List.iter
         (fun t ->
            let n = overlaps.(Target.rank t) in
            if n > 0 then
              emit Diag.Warning "code-data-overlap" [ task.label ]
                (Printf.sprintf
                   "%d shared %s line(s) both fetched and loaded/stored" n
                   (Target.to_string t)))
         overlap_order)
    tasks;
  (* cross-core sharing of SRI lines *)
  let conflicts = Hashtbl.create 16 in
  let rec pairs t = function
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
      pairs t rest
  in
  Lines.iter
    (fun key line ->
       match line.owners with
       | _ :: _ :: _ as l -> pairs (target_of_key key) l
       | _ -> ())
    lines;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) conflicts []
  |> List.sort compare
  |> List.iter (fun ((a, b, t), n) ->
      emit Diag.Error "map-overlap" [ a ]
        (Printf.sprintf
           "shares %d %s line(s) with task %s on another core; concurrent \
            tasks must use disjoint 32-byte SRI lines"
           n (Target.to_string t) b));
  List.rev !diags
