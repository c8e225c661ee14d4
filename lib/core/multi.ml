type result = { delta : int; per_contender : Ilp_ptac.result list }

let solve ?options models =
  let rec go acc = function
    | [] ->
      let delta = List.fold_left (fun d r -> d + r.Ilp_ptac.delta) 0 acc in
      Some { delta; per_contender = List.rev acc }
    | m :: rest -> Option.bind (Ilp_ptac.solve ?options m) (fun r -> go (r :: acc) rest)
  in
  go [] models

let contention_bound ?options ~latency ~scenario ~a ~contenders () =
  solve ?options
    (List.map
       (fun b -> Ilp_ptac.build_model ?options ~latency ~scenario ~a ~b ())
       contenders)

let pp fmt r =
  Format.fprintf fmt "@[<v>multi-contender: delta=%d@," r.delta;
  List.iteri
    (fun i c -> Format.fprintf fmt "  contender %d: %d@," i c.Ilp_ptac.delta)
    r.per_contender;
  Format.fprintf fmt "@]"
