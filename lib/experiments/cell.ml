open Platform

type t = {
  scenario : Scenario.t;
  config : Tcsim.Machine.config option;
  app : Analysis.Program_lint.task;
  contenders : Analysis.Program_lint.task list;
}

let task label core program = { Analysis.Program_lint.label; core; program }

let bundled ?config ~scenario ~load () =
  Obs.Tracer.with_span "cell.programs" @@ fun () ->
  let variant = Workload.Control_loop.variant_of_scenario scenario in
  {
    scenario;
    config;
    app = task "app" 0 (Workload.Control_loop.app variant);
    contenders = [ task "contender" 1 (Workload.Load_gen.make ~variant ~level:load ()) ];
  }

let latency c =
  (Option.value c.config ~default:Tcsim.Machine.default_config).Tcsim.Machine.latency

let preflight c =
  Obs.Tracer.with_span "cell.preflight" @@ fun () ->
  Analysis.Preflight.check_run ~latency:(latency c) ~scenario:c.scenario
    ~tasks:(c.app :: c.contenders) ()

type isolation = {
  iso_app : Mbta.Measurement.observation;
  iso_contenders : Mbta.Measurement.observation list;
}

type measured = {
  isolation : (isolation, string * exn) result;
  corun : (Mbta.Measurement.observation, exn) result option;
}

let measure ?(corun = false) c =
  Obs.Tracer.with_span "cell.measure" @@ fun () ->
  let rec isolate acc = function
    | [] -> Ok (List.rev acc)
    | { Analysis.Program_lint.label; core; program } :: rest -> (
      match Mbta.Measurement.isolation ?config:c.config ~core program with
      | o -> isolate (o :: acc) rest
      | exception e -> Error (label, e))
  in
  match isolate [] (c.app :: c.contenders) with
  | Error _ as e -> { isolation = e; corun = None }
  | Ok [] -> assert false
  | Ok (iso_app :: iso_contenders) ->
    let pair (t : Analysis.Program_lint.task) = (t.program, t.core) in
    let run () =
      Mbta.Measurement.corun ?config:c.config ~analysis:(pair c.app)
        ~contenders:(List.map pair c.contenders) ()
    in
    {
      isolation = Ok { iso_app; iso_contenders };
      corun =
        (if corun then Some (match run () with o -> Ok o | exception e -> Error e)
         else None);
    }

(* a lint stage's diagnostics, also counted as [lint.<pass>.*] *)
let recorded pass diags =
  Analysis.Diag.record_metrics ~pass diags;
  diags

let counter_lint c iso =
  Obs.Tracer.with_span "cell.counters" @@ fun () ->
  List.map2
    (fun (t : Analysis.Program_lint.task) (o : Mbta.Measurement.observation) ->
       Analysis.Counter_lint.check ~latency:(latency c) ~scenario:c.scenario
         ~path:[ "isolation"; t.label ] o.counters)
    (c.app :: c.contenders) (iso.iso_app :: iso.iso_contenders)
  |> List.concat |> recorded "counter"

type models = {
  options : Contention.Ilp_ptac.options;
  per_contender : (Ilp.Model.t * (string -> Ilp.Model.var)) list;
}

let models ?(options = Contention.Ilp_ptac.default_options) ?path c iso =
  Obs.Tracer.with_span "cell.models" @@ fun () ->
  let bs =
    List.map (fun (o : Mbta.Measurement.observation) -> o.counters) iso.iso_contenders
  in
  let options = { options with dirty_lmu = Contention.Ilp_ptac.charges_dirty_lmu bs } in
  let per_contender =
    List.map
      (fun b ->
         Contention.Ilp_ptac.build_model ~options ~latency:(latency c)
           ~scenario:c.scenario ~a:iso.iso_app.counters ~b ())
      bs
  in
  let lint (t : Analysis.Program_lint.task) (model, _) =
    let default = [ "ilp-ptac"; c.scenario.Scenario.name; t.label ] in
    Analysis.Model_lint.check model ~path:(Option.value path ~default)
  in
  ( { options; per_contender },
    List.concat (List.map2 lint c.contenders per_contender) |> recorded "model" )

type bounds = {
  ftc : Contention.Ftc.result;
  ideal_delta : int;
  ilp : Contention.Multi.result option;
}

let bounds ?models c { iso_app; iso_contenders } =
  Obs.Tracer.with_span "cell.bounds" @@ fun () ->
  let latency = latency c in
  let ideal (o : Mbta.Measurement.observation) =
    Contention.Ideal.contention_bound ~latency ~a:iso_app.ground_truth
      ~b:o.ground_truth ()
  in
  {
    ftc =
      Contention.Ftc.contention_bound
        ~dirty:(Contention.Ftc.dirty_misses c.scenario)
        ~latency ~a:iso_app.counters ();
    ideal_delta = List.fold_left (fun acc o -> acc + ideal o) 0 iso_contenders;
    ilp =
      Option.bind models (fun m ->
          Contention.Multi.solve ~options:m.options m.per_contender);
  }

type run = {
  readings : isolation;
  observed : Mbta.Measurement.observation option;
  built : models;
  bounds : bounds;
}

let run ?options ?(corun = false) c =
  let guard = Analysis.Preflight.guard in
  guard (preflight c);
  let m = measure ~corun c in
  let readings = match m.isolation with Ok iso -> iso | Error (_, e) -> raise e in
  guard (counter_lint c readings);
  let built, diags = models ?options c readings in
  guard diags;
  {
    readings;
    observed = Option.map (function Ok o -> o | Error e -> raise e) m.corun;
    built;
    bounds = bounds ~models:built c readings;
  }
