open Platform

type task = { label : string; core : int; program : Tcsim.Program.t }

(* the order [code-data-overlap] has always reported targets in *)
let overlap_order = Target.[ Pf1; Lmu; Dfl; Pf0 ]

(* (target, op) pairs as [2 * target rank + op rank] *)
let pair_index t o = (2 * Target.rank t) + Op.rank o

let targets = Array.of_list Target.all
let ntargets = Array.length targets

(* Per target: how many of the increasing keys [a] and [b] share. *)
let shared a b =
  let n = Array.make ntargets 0 and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if x > y then incr j
    else begin
      n.(x land 3) <- n.(x land 3) + 1;
      incr i;
      incr j
    end
  done;
  n

(* The per-program part is each program's {!Tcsim.Program.layout},
   taken once per program value; a cell only renders it under its
   tasks' labels and compares line sets across cores. *)
let check ?scenario tasks =
  let diags = ref [] in
  let emit ?equation severity rule path message =
    diags := Diag.make ?equation severity ~rule ~path message :: !diags
  in
  let zero = Array.make (2 * ntargets) false in
  Option.iter
    (fun s ->
       List.iter (fun (t, o) -> zero.(pair_index t o) <- true) (Scenario.zero_pairs s))
    scenario;
  List.iter
    (fun task ->
       let layout = Tcsim.Program.layout task.program in
       Array.iter
         (fun (loops, finding) ->
            let path = task.label :: loops in
            match finding with
            | Tcsim.Program.Unmapped { fetch; addr } ->
              emit Diag.Error "address-unmapped" path
                (Printf.sprintf "%s address 0x%08X is outside the TC27x map"
                   (if fetch then "fetch" else "data") addr)
            | Tcsim.Program.Dfl_fetch pc ->
              emit ~equation:"Figure 2" Diag.Error "code-from-dfl" path
                (Printf.sprintf
                   "instruction at 0x%08X fetched from the data flash; code \
                    never targets the DFL"
                   pc)
            | Tcsim.Program.Unreachable n ->
              emit Diag.Warning "loop-unreachable" path
                (Printf.sprintf
                   "loop count is 0: its %d-item body never executes and \
                    its accesses vanish from every profile"
                   n)
            | Tcsim.Program.First_access (t, o) ->
              if zero.(pair_index t o) then
                emit ~equation:"Table 5" Diag.Warning "zero-traffic-mismatch" path
                  (Printf.sprintf
                     "accesses (%s, %s), which the scenario's tailoring declares \
                      zero"
                     (Target.to_string t) (Op.to_string o)))
         layout.Tcsim.Program.findings;
       List.iter
         (fun t ->
            let n = layout.Tcsim.Program.overlaps.(Target.rank t) in
            if n > 0 then
              emit Diag.Warning "code-data-overlap" [ task.label ]
                (Printf.sprintf
                   "%d shared %s line(s) both fetched and loaded/stored" n
                   (Target.to_string t)))
         overlap_order)
    tasks;
  (* cross-core sharing of SRI lines, between the line sets of distinct
     (label, core) owners: tasks of one owner pool their lines *)
  let owners =
    List.fold_left
      (fun acc task ->
         let owner = (task.label, task.core) in
         let lines = (Tcsim.Program.layout task.program).Tcsim.Program.lines in
         match List.assoc_opt owner acc with
         | None -> (owner, lines) :: acc
         | Some l ->
           let union = List.sort_uniq Int.compare (Array.to_list l @ Array.to_list lines) in
           (owner, Array.of_list union) :: List.remove_assoc owner acc)
      [] tasks
  in
  let conflicts = Hashtbl.create 16 in
  let rec pairs = function
    | [] -> ()
    | ((la, ca), a) :: rest ->
      List.iter
        (fun ((lb, cb), b) ->
           if ca <> cb then begin
             let x, y = if la < lb then (la, lb) else (lb, la) in
             Array.iteri
               (fun rank n ->
                  if n > 0 then begin
                    let key = (x, y, targets.(rank)) in
                    Hashtbl.replace conflicts key
                      (n + Option.value (Hashtbl.find_opt conflicts key) ~default:0)
                  end)
               (shared a b)
           end)
        rest;
      pairs rest
  in
  pairs owners;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) conflicts []
  |> List.sort compare
  |> List.iter (fun ((a, b, t), n) ->
      emit Diag.Error "map-overlap" [ a ]
        (Printf.sprintf
           "shares %d %s line(s) with task %s on another core; concurrent \
            tasks must use disjoint 32-byte SRI lines"
           n (Target.to_string t) b));
  List.rev !diags
