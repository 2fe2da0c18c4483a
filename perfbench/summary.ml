(* Folds a pass's per-circuit results into the benchmark's metrics. *)

module S = Supervisor

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let all_ops pass = List.concat_map (fun (c : S.circuit) -> c.S.ops) pass
let ops_of op pass = List.filter (fun (r : S.op_result) -> r.S.op = op) (all_ops pass)
let ok_ops op pass = List.filter S.ok (ops_of op pass)

let value name (r : S.op_result) =
  match List.assoc_opt name r.S.values with Some v -> v | None -> 0.0

let total name op pass = sum (value name) (ok_ops op pass)
let stage_s op pass = sum (fun (r : S.op_result) -> r.S.secs) (ok_ops op pass)
let setup_s pass = sum (fun (c : S.circuit) -> Option.value c.S.setup_s ~default:0.0) pass
let total_s pass = sum (fun (r : S.op_result) -> r.S.secs) (all_ops pass)
let pct a b = if b = 0.0 then 100.0 else 100.0 *. a /. b

let attempted pass = List.length (all_ops pass)
let failed pass = List.length (List.filter (fun r -> not (S.ok r)) (all_ops pass))

(* Wrong outputs, as opposed to hangs and errors: these make the run
   incorrect, not just an op failed. *)
let wrong pass =
  List.filter_map
    (fun (r : S.op_result) ->
      match r.S.status with
      | S.Wrong msg -> Some msg
      | S.Ok | S.Failed _ | S.Timed_out | S.Not_run -> None)
    (all_ops pass)

(* The deterministic results of a pass: equal across runs of one seed and
   across the traced and untraced passes. *)
let quality pass =
  let compile = Workload.Compile and selftest = Workload.Selftest in
  let compiled = ok_ops compile pass in
  let testable = total "faults" selftest pass -. total "untestable" selftest pass in
  [ m "cut_nets" "count" (total "cut_nets" compile pass);
    m "sigma_dff" "dff" (total "sigma_dff" compile pass);
    m "area_saving_pp" "pp"
      (if compiled = [] then 0.0
       else total "area_saving_pp" compile pass /. float_of_int (List.length compiled));
    m "coverage_pct" "%" (pct (total "detected" selftest pass) testable);
    m "test_cycles" "cycles" (total "test_cycles" selftest pass);
    m "mux_cells" "count" (total "mux_cells" compile pass) ]

let end_to_end pass =
  let n_ops = attempted pass in
  [ m "setup_s" "s" (setup_s pass);
    m "compile_s" "s" (stage_s Workload.Compile pass);
    m "total_s" "s" (total_s pass);
    m "peak_rss_mb" "MB"
      (List.fold_left (fun acc (c : S.circuit) -> Float.max acc c.S.rss_mb) 0.0 pass);
    m "ops_ok_pct" "%" (pct (float_of_int (n_ops - failed pass)) (float_of_int n_ops)) ]
  @ quality pass

let layer_sum pass f =
  sum
    (fun (r : S.op_result) -> sum (fun (_, l) -> f l) r.S.layers)
    (List.filter S.ok (all_ops pass))

let layer pass name f =
  sum
    (fun (r : S.op_result) ->
      match List.assoc_opt name r.S.layers with Some l -> f l | None -> 0.0)
    (List.filter S.ok (all_ops pass))

let wall (l : S.layer) = l.S.wall
let mw (l : S.layer) = l.S.words /. 1e6

let per_layer ~untraced traced =
  let compile = Workload.Compile and selftest = Workload.Selftest in
  let faults = total "faults" selftest traced in
  let simulated = total "simulated" selftest traced in
  let required = total "retime_required" compile traced in
  let measured = setup_s traced +. sum (fun (r : S.op_result) -> r.S.secs)
                                      (List.filter S.ok (all_ops traced)) in
  let covered = setup_s traced +. layer_sum traced wall in
  let fs_wall = layer traced "bist.fault_sim" wall in
  [ m "netlist.parse_s" "s" (setup_s traced);
    m "digraph.graph_build_s" "s" (layer traced "digraph.graph_build" wall);
    m "core.flow_s" "s" (layer traced "core.flow" wall);
    m "core.flow_trees" "count" (total "flow_trees" compile traced);
    m "core.flow_alloc_mw" "Mw" (layer traced "core.flow" mw);
    m "core.cluster_s" "s" (layer traced "core.cluster" wall);
    m "core.assign_s" "s" (layer traced "core.assign" wall);
    m "core.assign_alloc_mw" "Mw" (layer traced "core.assign" mw);
    m "core.partitions" "count" (total "partitions" compile traced);
    m "core.area_s" "s" (layer traced "core.area" wall);
    m "retiming.solve_s" "s" (layer traced "retiming.solve" wall);
    m "retiming.emit_s" "s" (layer traced "retiming.emit" wall);
    m "retiming.kept_pct" "%" (pct (total "retime_kept" compile traced) required);
    m "core.insert_s" "s" (layer traced "core.insert" wall);
    m "analysis.dataflow_s" "s" (layer traced "analysis.dataflow" wall);
    m "analysis.timeouts" "count"
      (float_of_int
         (List.length
            (List.filter
               (fun (r : S.op_result) -> r.S.status = S.Timed_out)
               (ops_of Workload.Analyze traced))));
    m "analysis.untestable_s" "s" (layer traced "analysis.untestable" wall);
    m "analysis.pruned_pct" "%"
      (if faults = 0.0 then 0.0 else pct (total "untestable" selftest traced) faults);
    m "bist.fault_sim_s" "s" fs_wall;
    m "bist.word_evals" "count" (total "word_evals" selftest traced);
    m "bist.faults_simulated" "count" simulated;
    m "bist.detect_ratio" "ratio"
      (if simulated = 0.0 then 0.0 else total "detected" selftest traced /. simulated);
    m "bist.fault_sim_alloc_mw" "Mw" (layer traced "bist.fault_sim" mw);
    m "parallel.fault_sim_cpu_per_wall" "ratio"
      (if fs_wall = 0.0 then 0.0
       else layer traced "bist.fault_sim" (fun l -> l.S.cpu) /. fs_wall);
    m "core.phasing_s" "s" (layer traced "core.phasing" wall);
    m "check.seq_check_s" "s" (layer traced "check.seq_check" wall);
    m "core.equivalence_s" "s" (layer traced "core.equivalence" wall);
    m "lint.certificate_s" "s" (layer traced "lint.certificate" wall);
    m "unattributed_pct" "%" (pct (measured -. covered) measured);
    m "trace_overhead_pct" "%"
      (pct (total_s traced -. total_s untraced) (total_s untraced)) ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
