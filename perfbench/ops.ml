(* The benchmark's ops, built from the libraries' public functions. Each
   op returns named values and raises [Check_failed] when its output is
   wrong. Layer calls go through a [Layer.span]: a plain call when
   untraced, a timed one when traced. *)

module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module To_graph = Ppet_netlist.To_graph
module Csr = Ppet_digraph.Csr
module Prng = Ppet_digraph.Prng
module Scc_budget = Ppet_retiming.Scc_budget
module To_circuit = Ppet_retiming.To_circuit
module Params = Ppet_core.Params
module Merced = Ppet_core.Merced
module Flow = Ppet_core.Flow
module Cluster = Ppet_core.Cluster
module Assign = Ppet_core.Assign
module Area_accounting = Ppet_core.Area_accounting
module Cost = Ppet_core.Cost
module Testable = Ppet_core.Testable
module Phasing = Ppet_core.Phasing
module Equivalence = Ppet_core.Equivalence
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_engine = Ppet_bist.Fault_engine
module Batch = Ppet_bist.Fault_engine.Batch
module Fault_sim = Ppet_bist.Fault_sim
module Pipeline = Ppet_bist.Pipeline
module Dataflow = Ppet_analysis.Dataflow
module Ternary = Ppet_analysis.Ternary
module Scoap = Ppet_analysis.Scoap
module Untestable = Ppet_analysis.Untestable
module Seq_check = Ppet_check.Seq_check
module Dft_rules = Ppet_lint.Dft_rules
module Diag = Ppet_lint.Diag

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type compiled = {
  r : Merced.result;
  cert : Merced.certificate;
  emitted : To_circuit.emitted;
  testable : Testable.t;
}

type result = {
  values : (string * float) list;
  digest : string option;
      (* cut nets and partition iotas, so the traced re-staging can be
         compared with Merced.run *)
  check : unit -> unit;
      (* the output check, run after the op's time is taken; raises
         [Check_failed] *)
}

let no_check () = ()

let iotas (a : Assign.t) =
  List.map (fun (p : Assign.partition) -> p.Assign.input_count) a.Assign.partitions

let partition_digest (r : Merced.result) =
  let a = r.Merced.assignment in
  let ints l = String.concat "," (List.map string_of_int l) in
  Digest.to_hex (Digest.string (ints a.Assign.cut_nets ^ ";" ^ ints (iotas a)))

(* Merced.run re-staged from its public steps, so each layer call can be
   timed. One generator threads through flow and assign, as in
   Merced.run; the partition digest pins the two together. *)
let staged_run (span : Layer.span) params c =
  let graph = span.run "digraph.graph_build" (fun () -> To_graph.partition_view c) in
  let csr = span.run "digraph.graph_build" (fun () -> Csr.of_netgraph graph) in
  let budget = span.run "digraph.graph_build" (fun () -> Scc_budget.create c graph) in
  let rng = Prng.create params.Params.seed in
  let flow = span.run "core.flow" (fun () -> Flow.saturate ~csr graph params rng) in
  let clustering =
    span.run "core.cluster" (fun () ->
        Cluster.make_group ~csr c graph budget flow params)
  in
  let assignment =
    span.run "core.assign" (fun () ->
        Assign.run ~csr c graph clustering params rng)
  in
  let iotas = iotas assignment in
  let breakdown =
    span.run "core.area" (fun () ->
        Area_accounting.compute c budget ~cut_nets:assignment.Assign.cut_nets
          ~partition_iotas:iotas)
  in
  let clamped = List.map (fun i -> min i 32) iotas in
  {
    Merced.circuit = c;
    params;
    graph;
    budget;
    flow;
    clustering;
    assignment;
    breakdown;
    sigma_dff = Cost.sigma clamped;
    testing_time = Cost.testing_time_cycles clamped;
    cpu_seconds = 0.0;
  }

let findings diags = List.filter Diag.is_finding diags

let compile ~traced (span : Layer.span) params c =
  let r = if traced then staged_run span params c else Merced.run ~params c in
  let cert =
    match span.run "retiming.solve" (fun () -> Merced.retiming_certificate r) with
    | Some cert -> cert
    | None -> raise (Check_failed "no retiming certificate")
  in
  let emitted =
    span.run "retiming.emit" (fun () -> Merced.apply_certificate r cert)
  in
  let testable = span.run "core.insert" (fun () -> Testable.insert r) in
  let a = r.Merced.assignment in
  let b = r.Merced.breakdown in
  let cuts = List.length a.Assign.cut_nets in
  let check () =
    List.iter
      (fun (p : Assign.partition) ->
        check
          (p.Assign.input_count <= params.Params.l_k || p.Assign.oversize)
          "partition with iota %d over l_k %d is not marked oversize"
          p.Assign.input_count params.Params.l_k)
      a.Assign.partitions;
    check (b.Area_accounting.cuts_total = cuts)
      "area accounting counts %d cuts, assignment %d" b.Area_accounting.cuts_total
      cuts;
    check (Testable.cell_count testable = cuts) "%d test cells for %d cut nets"
      (Testable.cell_count testable) cuts;
    match findings (Dft_rules.retiming_legality r (Some cert)) with
    | [] -> ()
    | d :: _ -> raise (Check_failed ("certificate: " ^ Diag.to_human d))
  in
  let kept = List.length cert.Merced.cert_required in
  ( { r; cert; emitted; testable },
    {
      values =
        [ ("cut_nets", float_of_int cuts);
          ("sigma_dff", r.Merced.sigma_dff);
          ("area_saving_pp", b.Area_accounting.saving);
          ("mux_cells", float_of_int cert.Merced.cert_dropped);
          ("partitions", float_of_int (List.length a.Assign.partitions));
          ("flow_trees", float_of_int r.Merced.flow.Flow.iterations);
          ("retime_kept", float_of_int kept);
          ("retime_required", float_of_int (kept + cert.Merced.cert_dropped)) ];
      digest = Some (partition_digest r);
      check;
    } )

(* Pseudo-exhaustive self-test of every segment up to [max_width] inputs:
   static pruning, the batch fault engine, then the phase schedule. On a
   seeded sample of narrow segments the verdicts are replayed through the
   reference simulator. *)
let oracle_segments = 2
let oracle_faults = 8

let selftest (span : Layer.span) ~policy ~max_width ~seed c (k : compiled) =
  let r = k.r in
  let sim = span.run "bist.fault_sim" (fun () -> Simulator.create c) in
  let segs = Array.of_list (Merced.segments r) in
  let tested =
    List.filter
      (fun i -> Segment.input_count segs.(i) <= max_width)
      (List.init (Array.length segs) Fun.id)
  in
  let rng = Prng.create (Int64.add 0x0AC1EL seed) in
  let sample =
    let narrow = List.filter (fun i -> Segment.input_count segs.(i) <= 14) tested in
    let pool = Array.of_list (if narrow = [] then tested else narrow) in
    Prng.shuffle rng pool;
    Array.to_list (Array.sub pool 0 (min oracle_segments (Array.length pool)))
  in
  let uctx = span.run "analysis.untestable" (fun () -> Untestable.ctx c) in
  let faults = ref 0 and untestable = ref 0 and simulated = ref 0 in
  let detected = ref 0 and word_evals = ref 0 in
  let replays = ref [] in
  List.iter
    (fun i ->
      let seg = segs.(i) in
      let all =
        span.run "bist.fault_sim" (fun () ->
            Fault.collapse c (Fault.of_segment c seg))
      in
      let cls =
        span.run "analysis.untestable" (fun () -> Untestable.classify uctx seg all)
      in
      let patterns, o =
        span.run "bist.fault_sim" (fun () ->
            let patterns =
              Fault_engine.exhaustive_patterns ~width:(Segment.input_count seg)
            in
            let engine = Fault_engine.create sim seg in
            (patterns, Batch.run engine policy ~patterns cls.Untestable.testable))
      in
      faults := !faults + List.length all;
      untestable := !untestable + List.length cls.Untestable.untestable;
      simulated := !simulated + o.Batch.n_faults;
      detected := !detected + o.Batch.n_detected;
      word_evals := !word_evals + o.Batch.word_evals;
      if List.mem i sample then replays := (seg, patterns, cls, o) :: !replays)
    tested;
  let sched = span.run "core.phasing" (fun () -> Phasing.schedule r) in
  let check () =
    List.iter
      (fun (seg, patterns, cls, o) ->
        let pick l =
          let a = Array.of_list l in
          Prng.shuffle rng a;
          Array.to_list (Array.sub a 0 (min oracle_faults (Array.length a)))
        in
        let verdict = Hashtbl.create 64 in
        List.iter (fun (f, d) -> Hashtbl.replace verdict f d) o.Batch.results;
        let testable = pick cls.Untestable.testable in
        let pruned = pick (List.map fst cls.Untestable.untestable) in
        List.iter
          (fun (f, d) ->
            match Hashtbl.find_opt verdict f with
            | Some d' ->
              check (d = d') "fault %s: engine says %b, reference %b"
                (Fault.describe c f) d' d
            | None ->
              check (not d) "pruned fault %s is detected by the reference"
                (Fault.describe c f))
          (Fault_sim.segment_detects sim seg ~patterns (testable @ pruned)))
      !replays
  in
  {
    values =
      [ ("faults", float_of_int !faults);
        ("untestable", float_of_int !untestable);
        ("simulated", float_of_int !simulated);
        ("detected", float_of_int !detected);
        ("word_evals", float_of_int !word_evals);
        ("test_cycles", Pipeline.total_cycles sched) ];
    digest = None;
    check;
  }

(* Whole-circuit dataflow: the SCC schedule, ternary constants,
   X-initializability and SCOAP. *)
let analyze (span : Layer.span) c =
  let g = span.run "digraph.graph_build" (fun () -> To_graph.partition_view c) in
  let csr = span.run "digraph.graph_build" (fun () -> Csr.of_netgraph g) in
  let constants, init, scoap =
    span.run "analysis.dataflow" (fun () ->
        let sched = Dataflow.prepare csr in
        let constants = Ternary.constants sched c in
        let init = Ternary.initializable sched c ~constants in
        (constants, init, Scoap.compute sched c ~constants))
  in
  let check () =
    let n = Circuit.size c in
    check (Array.length constants = n && Array.length init = n)
      "dataflow arrays do not cover the %d nodes" n;
    Array.iteri
      (fun v x ->
        let c0 = scoap.Scoap.cc0.(v) and c1 = scoap.Scoap.cc1.(v) in
        if x = Ternary.zero then
          check (c0 = 0 && c1 >= Scoap.inf) "constant-0 node %d has CC %d/%d" v c0 c1
        else if x = Ternary.one then
          check (c1 = 0 && c0 >= Scoap.inf) "constant-1 node %d has CC %d/%d" v c0 c1
        else check (x = Ternary.unknown) "node %d has ternary value %d" v x)
      constants;
    Array.iter
      (fun v ->
        check (init.(v) && scoap.Scoap.cc0.(v) = 1 && scoap.Scoap.cc1.(v) = 1)
          "primary input %d is not a free, initialized source" v)
      c.Circuit.inputs
  in
  { values = []; digest = None; check }

(* `merced check`'s proofs of one compile: 3-valued sequential
   equivalence of the retimed netlist, lint's retiming-legality
   certificate (with its own solve, as the lint rule runs it), and
   normal-mode equivalence of the testable netlist. *)
let verify (span : Layer.span) c (k : compiled) =
  let seq =
    span.run "check.seq_check" (fun () ->
        Seq_check.check c k.emitted.To_circuit.circuit
          ~init_right:(To_circuit.init_fn k.emitted))
  in
  let lint =
    span.run "lint.certificate" (fun () ->
        Dft_rules.retiming_legality k.r (Merced.retiming_certificate k.r))
  in
  let t = k.testable in
  let eq =
    span.run "core.equivalence" (fun () ->
        Equivalence.check_bool c t.Testable.circuit
          ~force_right:
            [ (t.Testable.test_en, false); (t.Testable.fb_en, false);
              (t.Testable.psa_en, false); (t.Testable.scan_in, false) ])
  in
  let check () =
    (match seq with
     | Seq_check.Equivalent _ -> ()
     | Seq_check.Inequivalent d ->
       check false "retimed netlist diverges on %s at cycle %d" d.Seq_check.output
         d.Seq_check.cycle);
    (match findings lint with
     | [] -> ()
     | d :: _ -> raise (Check_failed ("lint: " ^ Diag.to_human d)));
    check eq.Equivalence.equivalent "testable netlist differs in normal mode"
  in
  { values = []; digest = None; check }

(* The deliberately hanging op of the benchmark's own time-limit test. *)
let hang () =
  let spins = ref 0 in
  while true do
    incr spins
  done;
  { values = [ ("spins", float_of_int !spins) ]; digest = None; check = no_check }
