(* Command-line front end for the AURIX TC27x contention analysis.

   Subcommands mirror the paper's workflow:
     calibrate   measure the Table 2 timing constants (microbenchmarks)
     counters    collect Table 6 debug-counter readings in isolation
     tables      print the static Tables 3, 4 and 5
     figure4     reproduce Figure 4 (model predictions vs isolation)
     estimate    one contention-aware WCET estimate, with model details
     lint        static analyses over models, counters, scenarios, programs
     ablations   run the A1-A4 ablation studies
     sweep       contender-load sweep of the ILP bound *)

open Cmdliner

let scenario_conv =
  let parse s =
    match Platform.Scenario.find s with
    | Some sc -> Ok sc
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown scenario %S (expected scenario1, scenario2 or unrestricted)" s))
  in
  let print fmt (s : Platform.Scenario.t) =
    Format.pp_print_string fmt s.Platform.Scenario.name
  in
  Arg.conv (parse, print)

let level_conv =
  let parse = function
    | "high" | "h" -> Ok Workload.Load_gen.High
    | "medium" | "m" -> Ok Workload.Load_gen.Medium
    | "low" | "l" -> Ok Workload.Load_gen.Low
    | s -> Error (`Msg (Printf.sprintf "unknown load level %S (high|medium|low)" s))
  in
  let print fmt l =
    Format.pp_print_string fmt (Workload.Load_gen.level_to_string l)
  in
  Arg.conv (parse, print)

let scenario_arg =
  Arg.(
    value
    & opt scenario_conv Platform.Scenario.scenario1
    & info [ "s"; "scenario" ] ~docv:"SCENARIO"
        ~doc:"Deployment scenario: scenario1, scenario2 or unrestricted.")

let level_arg =
  Arg.(
    value
    & opt level_conv Workload.Load_gen.High
    & info [ "l"; "load" ] ~docv:"LEVEL" ~doc:"Contender load level: high, medium or low.")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Runtime.Pool.max_jobs -> Ok n
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf "JOBS must be in 1..%d, got %d" Runtime.Pool.max_jobs n))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Degree of parallelism for independent experiment cells, 1 to 128 \
           (default: $(b,AURIX_JOBS) or the machine's domain count). Results \
           are identical for every value.")

(* --- simulator kernel -------------------------------------------------------- *)

let kernel_conv =
  let parse s =
    match Tcsim.Machine.kernel_of_string s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg (Printf.sprintf "invalid kernel %S, expected 'event' or 'stepped'" s))
  in
  Arg.conv
    ( parse,
      fun fmt k -> Format.pp_print_string fmt (Tcsim.Machine.kernel_to_string k) )

let kernel_arg =
  Arg.(
    value
    & opt (some kernel_conv) None
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Simulator kernel: $(b,event) (wakes only at SRI issues and \
           grants, the default) or $(b,stepped) (visits every cycle). \
           Results are bit-identical for both; also settable via \
           $(b,AURIX_KERNEL).")

let apply_kernel = function
  | None -> ()
  | Some k -> Tcsim.Machine.set_default_kernel k

(* --- observability ---------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it to $(docv) as Chrome \
           trace_event JSON (open in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON snapshot of the metrics registry (solver, simulator, \
           cache and lint counters) to $(docv) after the run.")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let dump_obs trace metrics =
  (match trace with
   | None -> ()
   | Some path ->
     write_file path (Obs.Tracer.to_chrome_json ());
     Format.eprintf "trace written to %s@." path);
  match metrics with
  | None -> ()
  | Some path ->
    write_file path (Obs.Metrics.to_json ());
    Format.eprintf "metrics written to %s@." path

(* Wraps a subcommand body: enables the tracer when a trace file was
   requested and dumps the requested files afterwards — also when the
   body raises, so a crashed run still leaves its trace behind. *)
let with_obs kernel trace metrics f =
  apply_kernel kernel;
  if trace <> None then Obs.Tracer.enable ();
  Fun.protect ~finally:(fun () -> dump_obs trace metrics) f

(* --- calibrate -------------------------------------------------------------- *)

let calibrate_cmd =
  let run kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    let t2 = Experiments.Table2.run () in
    Format.printf "%a@." Experiments.Table2.pp t2;
    Format.printf "matches reference constants: %b@."
      (Experiments.Table2.matches_reference t2 Platform.Latency.default)
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Measure the Table 2 latency/stall constants.")
    Term.(const run $ kernel_arg $ trace_arg $ metrics_arg)

(* --- counters ---------------------------------------------------------------- *)

let counters_cmd =
  let run jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "%a@." Experiments.Table6.pp (Experiments.Table6.run ?jobs ())
  in
  Cmd.v
    (Cmd.info "counters" ~doc:"Collect the Table 6 counter readings in isolation.")
    Term.(const run $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- tables ------------------------------------------------------------------- *)

let tables_cmd =
  let run () =
    Format.printf "--- Table 3 ---@.%a@." Experiments.Static_tables.pp_table3 ();
    Format.printf "--- Table 4 ---@.%a@." Experiments.Static_tables.pp_table4 ();
    Format.printf "--- Table 5 ---@.%a@." Experiments.Static_tables.pp_table5 ()
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Print the static Tables 3, 4 and 5.")
    Term.(const run $ const ())

(* --- figure4 ------------------------------------------------------------------ *)

let figure4_cmd =
  let run all scenario jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    let rows =
      if all then Experiments.Figure4.run_all ?jobs ()
      else Experiments.Figure4.run_scenario ?jobs scenario
    in
    Format.printf "%a@." Experiments.Figure4.pp_rows rows
  in
  let all_arg =
    Arg.(value & flag & info [ "a"; "all" ] ~doc:"Run both scenarios (default: one).")
  in
  Cmd.v
    (Cmd.info "figure4" ~doc:"Reproduce Figure 4: model predictions vs isolation.")
    Term.(const run $ all_arg $ scenario_arg $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- estimate ------------------------------------------------------------------ *)

let estimate_cmd =
  let run scenario level no_contender_info dump_lp kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    let options =
      {
        Contention.Ilp_ptac.default_options with
        Contention.Ilp_ptac.use_contender_info = not no_contender_info;
      }
    in
    let r =
      Experiments.Cell.(run ~options (bundled ~scenario ~load:level ()))
    in
    let a = r.readings.iso_app in
    Format.printf "application counters:@.%a@.@." Platform.Counters.pp a.counters;
    Format.printf "contender (%s) counters:@.%a@.@."
      (Workload.Load_gen.level_to_string level)
      Platform.Counters.pp (List.hd r.readings.iso_contenders).counters;
    Format.printf "%a@." Contention.Ftc.pp r.bounds.ftc;
    (match dump_lp with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc (Ilp.Lp_format.to_string (fst (List.hd r.built.per_contender)));
       close_out oc;
       Format.printf "ILP written to %s (CPLEX LP format)@.@." path);
    (match r.bounds.ilp with
     | Some { per_contender = [ ilp ]; _ } ->
       Format.printf "%a@." Contention.Ilp_ptac.pp_result ilp;
       let iso = a.cycles in
       Format.printf "@.WCET estimates over isolation = %d cycles:@." iso;
       Format.printf "  fTC      %a@." Mbta.Wcet.pp
         (Mbta.Wcet.make ~isolation_cycles:iso ~contention_cycles:r.bounds.ftc.delta);
       Format.printf "  ILP-PTAC %a@." Mbta.Wcet.pp
         (Mbta.Wcet.make ~isolation_cycles:iso ~contention_cycles:ilp.delta)
     | _ -> Format.printf "ILP-PTAC: infeasible@.")
  in
  let no_info_arg =
    Arg.(
      value & flag
      & info [ "no-contender-info" ]
          ~doc:"Drop Eqs. 22-23: fully time-composable ILP bound.")
  in
  let dump_lp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-lp" ] ~docv:"FILE"
          ~doc:"Write the tailored ILP to $(docv) in CPLEX LP format.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Compute one contention-aware WCET estimate with model details.")
    Term.(
      const run $ scenario_arg $ level_arg $ no_info_arg $ dump_lp_arg
      $ kernel_arg $ trace_arg $ metrics_arg)

(* --- ablations ------------------------------------------------------------------- *)

let ablations_cmd =
  let run jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "--- A1: contender information ---@.%a@."
      Experiments.Ablations.pp_a1 (Experiments.Ablations.a1_contender_info ?jobs ());
    Format.printf "--- A2: stall-equality encodings ---@.%a@."
      Experiments.Ablations.pp_a2 (Experiments.Ablations.a2_equality_modes ?jobs ());
    Format.printf "--- A3: two contenders ---@.%a@.%a@."
      Experiments.Ablations.pp_a3
      (Experiments.Ablations.a3_multi_contender ?jobs Platform.Scenario.scenario1)
      Experiments.Ablations.pp_a3
      (Experiments.Ablations.a3_multi_contender ?jobs Platform.Scenario.scenario2);
    Format.printf "--- A4: FSB reduction ---@.%a@."
      Experiments.Ablations.pp_a4 (Experiments.Ablations.a4_fsb ?jobs ())
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Run the A1-A4 ablation studies.")
    Term.(const run $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- portability ----------------------------------------------------------------- *)

let portability_cmd =
  let run jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "%a@." Experiments.Portability.pp
      (Experiments.Portability.run ?jobs ())
  in
  Cmd.v
    (Cmd.info "portability"
       ~doc:"Re-target the analysis at other TriCore-family timings (Sec. 4.3).")
    Term.(const run $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- priority ---------------------------------------------------------------------- *)

let priority_cmd =
  let run scenario jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "%a@." Experiments.Priority_study.pp
      (Experiments.Priority_study.run ~scenario ?jobs ())
  in
  Cmd.v
    (Cmd.info "priority"
       ~doc:"Compare same-class round-robin against a prioritised application.")
    Term.(const run $ scenario_arg $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- realistic -------------------------------------------------------------------- *)

let realistic_cmd =
  let run jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "%a@." Experiments.Realistic.pp
      (Experiments.Realistic.run ?jobs ())
  in
  Cmd.v
    (Cmd.info "realistic"
       ~doc:
         "Bound a production-style engine-control task (the paper's ~10% \
          use-case remark).")
    Term.(const run $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- signatures ----------------------------------------------------------------------- *)

let signatures_cmd =
  let run scenario steps kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    let variant = Workload.Control_loop.variant_of_scenario scenario in
    let latency = Platform.Latency.default in
    let app = Workload.Control_loop.app variant in
    let a = (Mbta.Measurement.isolation ~core:0 app).Mbta.Measurement.counters in
    (* the template ladder tops out at 1.5x the H-Load signature *)
    let h =
      (Mbta.Measurement.isolation ~core:1
         (Workload.Load_gen.make ~variant ~level:Workload.Load_gen.High ()))
        .Mbta.Measurement.counters
    in
    let top = Platform.Counters.scale_div h ~num:3 ~den:2 in
    let table =
      Contention.Signatures.precompute ~latency ~scenario ~a
        ~templates:(Contention.Signatures.grid ~steps ~max:top)
        ()
    in
    Format.printf "%a@." Contention.Signatures.pp table;
    Format.printf "@.classification of the measured co-runners:@.";
    List.iter
      (fun level ->
         let b =
           (Mbta.Measurement.isolation ~core:1
              (Workload.Load_gen.make ~variant ~level ()))
             .Mbta.Measurement.counters
         in
         match Contention.Signatures.classify table b with
         | Some e ->
           Format.printf "  %-8s -> %s (delta budget %d)@."
             (Workload.Load_gen.level_to_string level)
             e.Contention.Signatures.template.Contention.Signatures.label
             e.Contention.Signatures.delta
         | None ->
           Format.printf "  %-8s -> exceeds every template@."
             (Workload.Load_gen.level_to_string level))
      Workload.Load_gen.all_levels
  in
  let steps_arg =
    Arg.(value & opt int 6 & info [ "steps" ] ~docv:"N" ~doc:"Template ladder size.")
  in
  Cmd.v
    (Cmd.info "signatures"
       ~doc:
         "Precompute contention budgets against a ladder of contender \
          templates and classify the measured co-runners.")
    Term.(const run $ scenario_arg $ steps_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- dma ---------------------------------------------------------------------------- *)

let dma_cmd =
  let run jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "%a@." Experiments.Dma_study.pp (Experiments.Dma_study.run ?jobs ())
  in
  Cmd.v
    (Cmd.info "dma"
       ~doc:"Bound interference from a specification-driven DMA channel.")
    Term.(const run $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- report ------------------------------------------------------------------------- *)

let report_cmd =
  let run scenario level kernel output =
    apply_kernel kernel;
    let r =
      Experiments.Cell.(run ~corun:true (bundled ~scenario ~load:level ()))
    in
    let a = r.readings.iso_app and b = List.hd r.readings.iso_contenders in
    let ilp =
      match r.bounds.ilp with Some { per_contender = [ i ]; _ } -> Some i | _ -> None
    in
    let text =
      Contention.Report.render ~latency:Platform.Latency.default ~scenario
        ~a:a.counters ~b:b.counters ~isolation_cycles:a.cycles
        ~observed_cycles:(Option.get r.observed).cycles ~ftc:r.bounds.ftc
        ~model:(fst (List.hd r.built.per_contender)) ~ilp ()
    in
    match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "report written to %s@." path
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the report to $(docv).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Generate a markdown contention-analysis report for one estimate.")
    Term.(const run $ scenario_arg $ level_arg $ kernel_arg $ output_arg)

(* --- integrate ---------------------------------------------------------------------- *)

let integrate_cmd =
  let run jobs kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "%a@." Experiments.Integration_study.pp
      (Experiments.Integration_study.run ?jobs ())
  in
  Cmd.v
    (Cmd.info "integrate"
       ~doc:
         "Run the system-integration study: contention-aware response-time \
          analysis over a two-core task set.")
    Term.(const run $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- lint ---------------------------------------------------------------------- *)

let lint_cmd =
  let run json fixtures jobs kernel trace metrics =
    (* exit happens outside [with_obs] so the requested files are written
       even when the lint fails *)
    let diags =
      with_obs kernel trace metrics @@ fun () ->
      let diags =
        if fixtures then
        List.concat_map (fun f -> f.Analysis.Fixtures.diags ()) Analysis.Fixtures.all
      else begin
        (* per (scenario, load) cell: the cell pipeline's lint stages —
           scenario and program layout, isolation counters and the
           tailored ILP itself; each cell is independent, so the sweep
           parallelises like the experiments do *)
        let cell_diags =
          Runtime.Pool.map ?jobs
            (fun (scenario, load) ->
               let cell = Experiments.Cell.bundled ~scenario ~load () in
               let preflight = Experiments.Cell.preflight cell in
               let iso =
                 match (Experiments.Cell.measure cell).isolation with
                 | Ok iso -> iso
                 | Error (_, e) -> raise e
               in
               let counters = Experiments.Cell.counter_lint cell iso in
               let _, models =
                 Experiments.Cell.models ~path:[ "ilp-ptac" ] cell iso
               in
               Analysis.Diag.prefix
                 [
                   Printf.sprintf "%s/%s" scenario.Platform.Scenario.name
                     (Workload.Load_gen.level_to_string load);
                 ]
                 (preflight @ counters @ models))
            Experiments.Figure4.paper_cells
          |> List.concat
        in
        (* the bundled scenarios no cell validates *)
        let scenario_diags =
          List.concat_map
            (Analysis.Scenario_lint.check ~latency:Platform.Latency.default)
            (List.filter
               (fun s -> not (List.mem_assq s Experiments.Figure4.paper_cells))
               Platform.Scenario.all)
        in
        Analysis.Diag.record_metrics ~pass:"scenario" scenario_diags;
        scenario_diags @ cell_diags
      end
      in
      if json then print_endline (Analysis.Diag.report_to_json diags)
      else Format.printf "%a@." Analysis.Diag.pp_report diags;
      diags
    in
    if Analysis.Diag.has_errors diags then exit 1
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as a machine-readable JSON document.")
  in
  let fixtures_arg =
    Arg.(
      value & flag
      & info [ "fixtures" ]
          ~doc:
            "Lint the bundled seeded-defect fixtures instead of the real \
             configurations; exits non-zero because every fixture contains a \
             defect (self-test of the analyses).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static analyses (ILP model lint, counter consistency, \
          scenario validation, program/memory-map lint) over the bundled \
          configurations without solving anything. Exits non-zero if any \
          error-severity diagnostic is found.")
    Term.(const run $ json_arg $ fixtures_arg $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- sweep --------------------------------------------------------------------- *)

let sweep_cmd =
  let run scenario kernel trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    Format.printf "ILP-PTAC bound vs contender intensity (%s)@."
      scenario.Platform.Scenario.name;
    Format.printf "%-24s %12s %8s@." "contender" "delta" "ratio";
    List.iter
      (fun level ->
         let r = Experiments.Cell.(run (bundled ~scenario ~load:level ())) in
         let level = Workload.Load_gen.level_to_string level in
         match r.bounds.ilp with
         | Some { delta; _ } ->
           let w =
             Mbta.Wcet.make ~isolation_cycles:r.readings.iso_app.cycles
               ~contention_cycles:delta
           in
           Format.printf "%-24s %12d %8.2f@." level delta w.Mbta.Wcet.ratio
         | None -> Format.printf "%-24s %12s@." level "infeasible")
      Workload.Load_gen.all_levels
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the ILP bound over contender load levels.")
    Term.(const run $ scenario_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- audit -------------------------------------------------------------------- *)

let audit_cmd =
  let experiments : (string * (?jobs:int -> unit -> unit)) list =
    [
      ("figure4", fun ?jobs () -> ignore (Experiments.Figure4.run_all ?jobs ()));
      ("table6", fun ?jobs () -> ignore (Experiments.Table6.run ?jobs ()));
      ( "ablations",
        fun ?jobs () ->
          ignore (Experiments.Ablations.a1_contender_info ?jobs ());
          ignore (Experiments.Ablations.a2_equality_modes ?jobs ());
          ignore
            (Experiments.Ablations.a3_multi_contender ?jobs
               Platform.Scenario.scenario1);
          ignore (Experiments.Ablations.a4_fsb ?jobs ()) );
      ( "bnb",
        (* Hard certified solves: seeded models whose searches branch
           deep, so the audited certificates are whole search trees.
           One solve at a time; --jobs does not reach them. *)
        fun ?jobs:_ () ->
          let state = ref 0x1F123BB5 in
          let rand bound =
            state := ((!state * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
            (!state lsr 16) mod bound
          in
          let models =
            List.init 6 (fun _ ->
                let q = Numeric.Q.of_int in
                let m = Ilp.Model.create () in
                let nv = 7 + rand 3 in
                let vars =
                  Array.init nv (fun i ->
                      Ilp.Model.add_var m ~integer:true ~ub:(q (3 + rand 6))
                        (Printf.sprintf "x%d" i))
                in
                for _ = 1 to 6 + rand 5 do
                  let terms =
                    Array.to_list
                      (Array.map (fun v -> (q (rand 11 - 4), v)) vars)
                  in
                  Ilp.Model.add_constraint m (Ilp.Linexpr.of_terms terms)
                    Ilp.Model.Le
                    (q (15 + rand 45))
                done;
                Ilp.Model.set_objective m Ilp.Model.Maximize
                  (Ilp.Linexpr.of_terms
                     (Array.to_list
                        (Array.map
                           (fun v -> (Numeric.Q.of_ints (1 + rand 17) 2, v))
                           vars)));
                m)
          in
          List.iter
            (fun m -> ignore Runtime.Solve_cache.(solve_ilp (prepare m)))
            models );
    ]
  in
  let run name jobs kernel trace metrics =
    let selected =
      if name = "all" then experiments
      else
        match List.assoc_opt name experiments with
        | Some f -> [ (name, f) ]
        | None ->
          Format.eprintf "unknown experiment %S (expected all, %s)@." name
            (String.concat ", " (List.map fst experiments));
          exit 2
    in
    (* exit happens outside [with_obs] so trace/metrics files are written
       even when the audit fails *)
    let ok =
      with_obs kernel trace metrics @@ fun () ->
      Runtime.Solve_cache.set_audit true;
      Fun.protect ~finally:(fun () -> Runtime.Solve_cache.set_audit false)
      @@ fun () ->
      (* cold caches, so every solve of the selected experiments actually
         runs — and is therefore certified and checked *)
      Runtime.Solve_cache.clear ();
      Runtime.Run_cache.clear ();
      List.iter
        (fun (n, f) ->
           Format.printf "=== auditing %s ===@." n;
           f ?jobs ())
        selected;
      let count n = Obs.Metrics.value (Obs.Metrics.counter n) in
      let verified = count "audit.verified"
      and failed = count "audit.failed" in
      Format.printf "@.audit: %d verified, %d failed@." verified failed;
      List.iter
        (fun (key, reason) -> Format.printf "  FAILED %s: %s@." key reason)
        (Runtime.Solve_cache.audit_failures ());
      if verified = 0 then
        Format.printf "  (nothing was verified: an empty audit proves nothing)@.";
      failed = 0 && verified > 0
    in
    if not ok then exit 1
  in
  let name_arg =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiment whose solves to audit: figure4, table6, ablations or \
             all (default all).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Re-run the paper experiments in audit mode: every ILP/LP answer \
          must carry a certificate that an independent exact checker \
          verifies. Exits non-zero if any solve fails its audit or if no \
          solve was verified. Verdicts are identical for every \
          $(b,--jobs) value.")
    Term.(const run $ name_arg $ jobs_arg $ kernel_arg $ trace_arg $ metrics_arg)

(* --- serve / query ------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path to listen/connect on (default: \
           aurix-serve.sock in the system temp directory). Ignored when \
           $(b,--port) is given.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen/connect on TCP $(docv) instead of a Unix socket.")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host for $(b,--port) (default 127.0.0.1).")

let addr_of socket port host =
  match port with
  | Some port -> Serve.Server.Tcp { host; port }
  | None ->
    let path =
      match socket with
      | Some p -> p
      | None -> Filename.concat (Filename.get_temp_dir_name ()) "aurix-serve.sock"
    in
    Serve.Server.Unix_path path

let serve_cmd =
  let run socket port host cache_dir no_disk max_bytes log_file jobs kernel
      trace metrics =
    with_obs kernel trace metrics @@ fun () ->
    (match log_file with
     | Some path ->
       if not (Obs.Log.open_sink path) then begin
         Format.eprintf "cannot open log file %s@." path;
         exit 2
       end
     | None -> ());
    Fun.protect ~finally:Obs.Log.close_sink @@ fun () ->
    let addr = addr_of socket port host in
    let disk =
      if no_disk then None else Some (Serve.Disk_cache.open_ ?root:cache_dir ())
    in
    let engine =
      Serve.Engine.create
        {
          Serve.Engine.default_config with
          Serve.Engine.jobs;
          max_request_bytes = max_bytes;
          disk;
          persist_runtime_caches = disk <> None;
        }
    in
    let stop = Atomic.make false in
    let on_signal _ = Atomic.set stop true in
    (try
       ignore (Sys.signal Sys.sigint (Sys.Signal_handle on_signal));
       ignore (Sys.signal Sys.sigterm (Sys.Signal_handle on_signal))
     with _ -> ());
    (match disk with
     | Some d -> Format.printf "disk cache: %s@." (Serve.Disk_cache.root d)
     | None -> Format.printf "disk cache: disabled@.");
    Fun.protect ~finally:(fun () -> Serve.Engine.close engine) @@ fun () ->
    Serve.Server.serve ~engine ~addr ~stop
      ~on_ready:(fun a ->
          Format.printf "listening on %a@." Serve.Server.pp_addr a;
          flush stdout)
      ()
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Root of the persistent cache tier (default: $(b,AURIX_CACHE_DIR) \
             or ~/.cache/aurix).")
  in
  let no_disk_arg =
    Arg.(
      value & flag
      & info [ "no-disk-cache" ]
          ~doc:"Serve from the in-memory caches only; nothing persists.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt int Serve.Engine.default_config.Serve.Engine.max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Reject request lines longer than $(docv) bytes (default 1 MiB).")
  in
  let log_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"FILE"
          ~doc:
            "Append structured JSONL event-log records (connections, cache \
             quarantines, rejects, errors) to $(docv); also settable via \
             $(b,AURIX_LOG). Level via $(b,AURIX_LOG_LEVEL).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the contention-analysis daemon: newline-delimited JSON \
          requests over a Unix or TCP socket, answered through the shared \
          in-memory caches and a persistent on-disk tier that survives \
          restarts.")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ cache_dir_arg $ no_disk_arg
      $ max_bytes_arg $ log_file_arg $ jobs_arg $ kernel_arg $ trace_arg
      $ metrics_arg)

let query_cmd =
  let run socket port host file op scenario levels models observed id trace
      metrics =
    (* exit happens outside [with_obs] so the requested files are written
       (the client trace carries the request's trace id) *)
    let code =
      with_obs None trace metrics @@ fun () ->
      let addr = addr_of socket port host in
      let client = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      match file with
      | Some f ->
        let line =
          let ic = open_in f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> input_line ic)
        in
        let reply = Serve.Client.rpc_line client line in
        print_endline reply;
        (match Serve.Protocol.decode_response reply with
         | Ok (Serve.Protocol.Reject _) -> 3
         | Ok _ -> 0
         | Error msg ->
           Format.eprintf "undecodable response: %s@." msg;
           4)
      | None ->
        let req =
          match op with
          | "ping" -> Serve.Protocol.Ping id
          | "metrics" -> Serve.Protocol.Metrics_req id
          | "stats" -> Serve.Protocol.Stats_req id
          | "shutdown" -> Serve.Protocol.Shutdown id
          | "analyze" ->
            let contenders =
              List.mapi
                (fun i level ->
                   Serve.Protocol.Con_level { level; core = i + 1 })
                levels
            in
            Serve.Protocol.Analyze
              {
                Serve.Protocol.id;
                scenario = scenario.Platform.Scenario.name;
                app = Serve.Protocol.App_bundled;
                contenders;
                models;
                observed;
                trace = None;
              }
          | other ->
            Format.eprintf
              "unknown op %S (expected analyze, ping, metrics, stats or \
               shutdown)@."
              other;
            exit 2
        in
        (* [Client.rpc] originates the trace context when --trace enabled
           the tracer; re-encoding the decoded reply reproduces the
           daemon's bytes (the codec is an exact inverse) *)
        (match Serve.Client.rpc client req with
         | Ok resp ->
           print_endline (Serve.Protocol.encode_response resp);
           (match resp with Serve.Protocol.Reject _ -> 3 | _ -> 0)
         | Error msg ->
           Format.eprintf "undecodable response: %s@." msg;
           4)
    in
    if code <> 0 then exit code
  in
  let file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Send the first line of $(docv) as a raw request instead of \
             building one from the flags.")
  in
  let op_arg =
    Arg.(
      value
      & opt string "analyze"
      & info [ "op" ] ~docv:"OP"
          ~doc:"Request kind: analyze (default), ping, metrics, stats or shutdown.")
  in
  let loads_arg =
    Arg.(
      value
      & opt_all level_conv []
      & info [ "load" ] ~docv:"LEVEL"
          ~doc:
            "Add a bundled contender at this load level (repeatable; they \
             occupy cores 1, 2 in order).")
  in
  let model_conv =
    let parse s =
      match Serve.Protocol.model_of_string s with
      | Some m -> Ok m
      | None ->
        Error (`Msg (Printf.sprintf "unknown model %S (ideal|ftc|ilp-ptac)" s))
    in
    Arg.conv
      (parse, fun fmt m -> Format.pp_print_string fmt (Serve.Protocol.model_to_string m))
  in
  let models_arg =
    Arg.(
      value
      & opt (list model_conv)
          [ Serve.Protocol.Ftc; Serve.Protocol.Ilp_ptac; Serve.Protocol.Ideal ]
      & info [ "models" ] ~docv:"MODELS"
          ~doc:"Comma-separated bounds to compute (default ftc,ilp-ptac,ideal).")
  in
  let observed_arg =
    Arg.(
      value & flag
      & info [ "observed" ]
          ~doc:"Also run the actual co-run and report its observed cycles.")
  in
  let id_arg =
    Arg.(
      value & opt string "q1"
      & info [ "id" ] ~docv:"ID" ~doc:"Correlation id echoed in the response.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one request to a running serve daemon and print the raw \
          response line. Exits 3 when the daemon rejected the request. \
          With $(b,--trace), the request carries a fresh trace id that the \
          daemon adopts, so the client trace and a daemon trace of the \
          same run stitch into one span tree.")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ file_arg $ op_arg
      $ scenario_arg $ loads_arg $ models_arg $ observed_arg $ id_arg
      $ trace_arg $ metrics_arg)

(* --- stats ------------------------------------------------------------------- *)

let stats_cmd =
  let module J = Obs.Json in
  let rec pp_payload fmt indent j =
    match j with
    | J.Obj kvs ->
      List.iter
        (fun (k, v) ->
           match v with
           | J.Obj _ ->
             Format.fprintf fmt "%s%s:@." indent k;
             pp_payload fmt (indent ^ "  ") v
           | J.List items ->
             Format.fprintf fmt "%s%s: %d item(s)@." indent k
               (List.length items);
             List.iter
               (fun item ->
                  Format.fprintf fmt "%s  - %s@." indent (J.to_string item))
               items
           | _ -> Format.fprintf fmt "%s%s: %s@." indent k (J.to_string v))
        kvs
    | _ -> Format.fprintf fmt "%s%s@." indent (J.to_string j)
  in
  let run socket port host prometheus json id =
    let addr = addr_of socket port host in
    let client = Serve.Client.connect addr in
    let resp =
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () -> Serve.Client.rpc client (Serve.Protocol.Stats_req id))
    in
    match resp with
    | Ok (Serve.Protocol.Stats_reply { stats; payload; _ }) ->
      if prometheus then (
        match J.member "prometheus" payload with
        | Some (J.Str s) -> print_string s
        | _ ->
          Format.eprintf "stats payload has no prometheus section@.";
          exit 4)
      else if json then print_endline (J.to_string payload)
      else begin
        let fmt = Format.std_formatter in
        pp_payload fmt ""
          (match payload with
           | J.Obj kvs -> J.Obj (List.remove_assoc "prometheus" kvs)
           | other -> other);
        Format.fprintf fmt "counters:@.";
        List.iter
          (fun (k, v) -> Format.fprintf fmt "  %s: %d@." k v)
          stats;
        Format.pp_print_flush fmt ()
      end
    | Ok _ ->
      Format.eprintf "unexpected response kind to stats request@.";
      exit 4
    | Error msg ->
      Format.eprintf "undecodable response: %s@." msg;
      exit 4
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print the Prometheus text exposition of the daemon's metrics \
             registry instead of the human summary.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the raw introspection payload as one JSON line.")
  in
  let id_arg =
    Arg.(
      value & opt string "stats"
      & info [ "id" ] ~docv:"ID" ~doc:"Correlation id echoed in the response.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Introspect a running serve daemon: uptime, in-flight requests, \
          per-stage latency histograms, cache occupancy and hit rates, \
          audit verdicts and recent rejects — human-readable by default, \
          or as JSON / Prometheus text exposition.")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ prometheus_arg $ json_arg
      $ id_arg)

(* --- obs --------------------------------------------------------------------- *)

let obs_analyze_cmd =
  let run files json top =
    let inputs =
      List.map
        (fun f ->
           let ic = open_in_bin f in
           let content =
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> really_input_string ic (in_channel_length ic))
           in
           (Filename.basename f, content))
        files
    in
    match Obs.Trace_analyzer.of_strings inputs with
    | Error msg ->
      Format.eprintf "cannot analyze: %s@." msg;
      exit 2
    | Ok t ->
      if json then
        print_endline (Obs.Json.to_string (Obs.Trace_analyzer.to_json ~top t))
      else print_string (Obs.Trace_analyzer.report_string ~top t)
  in
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:
            "Chrome trace_event JSON file(s) written by $(b,--trace); pass \
             the client's and the daemon's trace of the same run together \
             to stitch them by shared trace id.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the analysis as JSON instead of a report.")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"Bound the slowest-requests and trace lists (default 5).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze exported trace files offline: critical path, per-stage \
          latency breakdown, top-N slowest requests, cache effectiveness \
          and cross-process trace connectivity.")
    Term.(const run $ files_arg $ json_arg $ top_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Offline observability tooling for exported traces.")
    [ obs_analyze_cmd ]

let () =
  let doc = "Multicore contention models for the AURIX TC27x (DAC 2018 reproduction)" in
  let info = Cmd.info "aurix_contention" ~version:"1.0.0" ~doc in
  Obs.Log.init_from_env ();
  exit
    (Cmd.eval
       (Cmd.group info
          [
            calibrate_cmd;
            counters_cmd;
            tables_cmd;
            figure4_cmd;
            estimate_cmd;
            ablations_cmd;
            portability_cmd;
            priority_cmd;
            realistic_cmd;
            integrate_cmd;
            dma_cmd;
            lint_cmd;
            audit_cmd;
            signatures_cmd;
            report_cmd;
            sweep_cmd;
            serve_cmd;
            query_cmd;
            stats_cmd;
            obs_cmd;
          ]))
