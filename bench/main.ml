(* Regenerates every table and figure of the paper (Tables 2-6,
   Figure 4) plus the ablation studies and extensions documented in
   DESIGN.md, printing each to standard output. Speed is measured by
   perfbench/ (see perfbench/README.md), not here.

   Usage:
     dune exec bench/main.exe *)

let section title =
  Format.printf "@.=== %s ===@." title

let stages =
  [
    (fun () ->
      section "Table 2: SRI latencies and minimum stall cycles (measured)";
      let t2 = Experiments.Table2.run () in
      Format.printf "%a@." Experiments.Table2.pp t2;
      Format.printf "matches the model's reference constants: %b@."
        (Experiments.Table2.matches_reference t2 Platform.Latency.default));
    (fun () ->
      section "Table 3: constraints on code/data wrt SRI slaves";
      Format.printf "%a@." Experiments.Static_tables.pp_table3 ());
    (fun () ->
      section "Table 4: debug counters used by the models";
      Format.printf "%a@." Experiments.Static_tables.pp_table4 ());
    (fun () ->
      section "Table 5: ILP-PTAC tailoring per deployment scenario";
      Format.printf "%a@." Experiments.Static_tables.pp_table5 ());
    (fun () ->
      section "Table 6: counter readings (application + H-Load, isolation)";
      Format.printf "%a@." Experiments.Table6.pp (Experiments.Table6.run ()));
    (fun () ->
      section "Figure 4: model predictions w.r.t. execution in isolation";
      Format.printf "%a@." Experiments.Figure4.pp_rows
        (Experiments.Figure4.run_all ()));
    (fun () ->
      section "Ablation A1: value of contender information (Eqs. 22-23)";
      Format.printf "%a@." Experiments.Ablations.pp_a1
        (Experiments.Ablations.a1_contender_info ()));
    (fun () ->
      section "Ablation A2: stall-equality encodings (Eqs. 20-23)";
      Format.printf "%a@." Experiments.Ablations.pp_a2
        (Experiments.Ablations.a2_equality_modes ()));
    (fun () ->
      section "Ablation A3: two simultaneous contenders";
      Format.printf "%a@." Experiments.Ablations.pp_a3
        (Experiments.Ablations.a3_multi_contender Platform.Scenario.scenario1);
      Format.printf "%a@." Experiments.Ablations.pp_a3
        (Experiments.Ablations.a3_multi_contender Platform.Scenario.scenario2));
    (fun () ->
      section "Ablation A4: FSB reduction vs crossbar model (Sec. 4.3)";
      Format.printf "%a@." Experiments.Ablations.pp_a4
        (Experiments.Ablations.a4_fsb ()));
    (fun () ->
      section "Extension E1: portability across TriCore variants (Sec. 4.3)";
      Format.printf "%a@." Experiments.Portability.pp
        (Experiments.Portability.run ()));
    (fun () ->
      section "Extension E2: SRI priority classes vs the same-class setting";
      Format.printf "%a@." Experiments.Priority_study.pp
        (Experiments.Priority_study.run ());
      Format.printf "%a@." Experiments.Priority_study.pp
        (Experiments.Priority_study.run ~scenario:Platform.Scenario.scenario2 ()));
    (fun () ->
      section "Extension E3: realistic automotive use case (~10% remark)";
      Format.printf "%a@." Experiments.Realistic.pp (Experiments.Realistic.run ()));
    (fun () ->
      section "Extension E4: system integration (contention-aware RTA)";
      Format.printf "%a@." Experiments.Integration_study.pp
        (Experiments.Integration_study.run ()));
    (fun () ->
      section "Extension E5: specification-driven DMA background traffic";
      Format.printf "%a@." Experiments.Dma_study.pp (Experiments.Dma_study.run ()));
  ]

let () =
  List.iter (fun print -> print ()) stages;
  Format.printf "@.done.@."
