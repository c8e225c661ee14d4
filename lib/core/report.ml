open Platform
open Numeric

let value_of_result (r : Ilp_ptac.result) model =
  (* Map model variables back to the result's counts via their names. *)
  let value_by_name = Hashtbl.create 32 in
  List.iter
    (fun (t, o) ->
       let set role count =
         Hashtbl.replace value_by_name
           (Printf.sprintf "n%s_%s_%s" role (Target.to_string t) (Op.to_string o))
           (Q.of_int count)
       in
       set "a" (Access_profile.get r.Ilp_ptac.a_counts t o);
       set "b" (Access_profile.get r.Ilp_ptac.b_counts t o);
       set "ba"
         (try List.assoc (t, o) r.Ilp_ptac.interference with Not_found -> 0))
    Op.valid_pairs;
  fun v ->
    match Hashtbl.find_opt value_by_name (Ilp.Model.var_name model v) with
    | Some q -> q
    | None -> Q.zero

let binding_of_model model result =
  let value = value_of_result result model in
  List.filter_map
    (fun (c : Ilp.Model.constr) ->
       let lhs = Ilp.Linexpr.eval c.Ilp.Model.expr value in
       let tight =
         match c.Ilp.Model.csense with
         | Ilp.Model.Eq -> true
         | Ilp.Model.Le | Ilp.Model.Ge -> Q.equal lhs c.Ilp.Model.rhs
       in
       (* rows whose variables are all zero are vacuously tight *)
       let informative =
         List.exists
           (fun (v, _) -> not (Q.is_zero (value v)))
           (Ilp.Linexpr.terms c.Ilp.Model.expr)
       in
       if tight && informative then
         Some
           ( c.Ilp.Model.cname,
             Format.asprintf "%a %s %s"
               (Ilp.Linexpr.pp ~names:(Ilp.Model.var_name model))
               c.Ilp.Model.expr
               (match c.Ilp.Model.csense with
                | Ilp.Model.Le -> "<="
                | Ilp.Model.Ge -> ">="
                | Ilp.Model.Eq -> "=")
               (Q.to_string c.Ilp.Model.rhs) )
       else None)
    (Ilp.Model.constraints model)

let binding_constraints ?options ~latency ~scenario ~a ~b result =
  binding_of_model
    (fst (Ilp_ptac.build_model ?options ~latency ~scenario ~a ~b ()))
    result

let render ~latency ~scenario ~a ~b ~isolation_cycles ?observed_cycles ~ftc
    ~model ~ilp () =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# Contention-aware WCET report";
  line "";
  line "## Inputs";
  line "";
  line "- deployment scenario: `%s` (%s)" scenario.Scenario.name
    scenario.Scenario.description;
  line "- isolation execution time: %d cycles" isolation_cycles;
  line "";
  line "| counter | task a | contender b |";
  line "|---|---|---|";
  line "| PMEM_STALL | %d | %d |" a.Counters.pmem_stall b.Counters.pmem_stall;
  line "| DMEM_STALL | %d | %d |" a.Counters.dmem_stall b.Counters.dmem_stall;
  line "| PCACHE_MISS | %d | %d |" a.Counters.pcache_miss b.Counters.pcache_miss;
  line "| D$_MISS_CLEAN | %d | %d |" a.Counters.dcache_miss_clean
    b.Counters.dcache_miss_clean;
  line "| D$_MISS_DIRTY | %d | %d |" a.Counters.dcache_miss_dirty
    b.Counters.dcache_miss_dirty;
  line "";
  line "## Derived access bounds (Eq. 4)";
  line "";
  let ba = Mbta.Access_bounds.of_counters latency a in
  let bb = Mbta.Access_bounds.of_counters latency b in
  line "- task a: n_co <= %d, n_da <= %d" ba.Mbta.Access_bounds.n_co
    ba.Mbta.Access_bounds.n_da;
  line "- contender b: n_co <= %d, n_da <= %d" bb.Mbta.Access_bounds.n_co
    bb.Mbta.Access_bounds.n_da;
  line "";
  line "## Bounds";
  line "";
  let wcet delta = isolation_cycles + delta in
  line "### fTC (fully time-composable, Eq. 8)";
  line "";
  line "- delta = %d cycles = %d x %d + %d x %d" ftc.Ftc.delta ftc.Ftc.n_co
    ftc.Ftc.l_co_max ftc.Ftc.n_da ftc.Ftc.l_da_max;
  line "- WCET = %d cycles (x%.2f over isolation)" (wcet ftc.Ftc.delta)
    (float_of_int (wcet ftc.Ftc.delta) /. float_of_int isolation_cycles);
  line "";
  line "### ILP-PTAC (Eqs. 9-23, Table 5 tailoring)";
  line "";
  (match ilp with
   | None -> line "- infeasible under the selected stall-equality encoding"
   | Some r ->
     line "- delta = %d cycles%s" r.Ilp_ptac.delta
       (if r.Ilp_ptac.exact then " (exact optimum)" else " (sound upper bound)");
     line "- WCET = %d cycles (x%.2f over isolation)" (wcet r.Ilp_ptac.delta)
       (float_of_int (wcet r.Ilp_ptac.delta) /. float_of_int isolation_cycles);
     line "";
     line "worst-case interference mapping (n_b->a per target/op):";
     line "";
     line "| target | op | conflicts | latency each |";
     line "|---|---|---|---|";
     List.iter
       (fun ((t, o), n) ->
          if n > 0 then
            line "| %s | %s | %d | %d |" (Target.to_string t) (Op.to_string o) n
              (Latency.lmax_op latency t o))
       r.Ilp_ptac.interference;
     line "";
     line "binding constraints at the optimum:";
     line "";
     List.iter
       (fun (name, eqn) -> line "- `%s`: %s" name eqn)
       (binding_of_model model r));
  (match observed_cycles with
   | None -> ()
   | Some obs ->
     line "";
     line "## Validation";
     line "";
     line "- observed multicore execution: %d cycles (x%.2f)" obs
       (float_of_int obs /. float_of_int isolation_cycles));
  Buffer.contents buf

let markdown ?options ~latency ~scenario ~a ~b ~isolation_cycles ?observed_cycles () =
  let model = Ilp_ptac.build_model ?options ~latency ~scenario ~a ~b () in
  render ~latency ~scenario ~a ~b ~isolation_cycles ?observed_cycles
    ~ftc:(Ftc.contention_bound ~dirty:(Ftc.dirty_misses scenario) ~latency ~a ())
    ~model:(fst model) ~ilp:(Ilp_ptac.solve ?options model) ()
