module Assign = Ppet_core.Assign
module Cluster = Ppet_core.Cluster
module Flow = Ppet_core.Flow
module Params = Ppet_core.Params
module Netgraph = Ppet_digraph.Netgraph
module Prng = Ppet_digraph.Prng
module To_graph = Ppet_netlist.To_graph
module Scc_budget = Ppet_retiming.Scc_budget
module Generator = Ppet_netlist.Generator
module S27 = Ppet_netlist.S27
module Benchmarks = Ppet_netlist.Benchmarks
module Csr = Ppet_digraph.Csr
module Merced = Ppet_core.Merced

let run_pipeline ?(l_k = 3) c =
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  let params = { Params.default with Params.l_k } in
  let rng = Prng.create 2L in
  let flow = Flow.saturate g params rng in
  let clustering = Cluster.make_group c g sb flow params in
  let a = Assign.run c g clustering params rng in
  (g, params, clustering, a)

let test_partitions_cover () =
  let c = S27.circuit () in
  let g, _, _, a = run_pipeline c in
  let seen = Array.make (Netgraph.n_nodes g) 0 in
  List.iter
    (fun p -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) p.Assign.vertices)
    a.Assign.partitions;
  Alcotest.(check bool) "exactly once" true (Array.for_all (fun k -> k = 1) seen)

let test_constraint_respected () =
  let c = S27.circuit () in
  let _, params, _, a = run_pipeline c in
  List.iter
    (fun p ->
      if not p.Assign.oversize then
        Alcotest.(check bool) "iota <= l_k" true
          (p.Assign.input_count <= params.Params.l_k))
    a.Assign.partitions

let test_merging_reduces_count () =
  let c = S27.circuit () in
  let _, _, clustering, a = run_pipeline c in
  Alcotest.(check bool) "merges happened or nothing to merge" true
    (List.length a.Assign.partitions <= List.length clustering.Cluster.clusters)

let test_merged_from_accounting () =
  let c = S27.circuit () in
  let _, _, clustering, a = run_pipeline c in
  let total =
    List.fold_left (fun acc p -> acc + p.Assign.merged_from) 0 a.Assign.partitions
  in
  Alcotest.(check int) "clusters conserved" (List.length clustering.Cluster.clusters) total

let test_cut_nets_consistent () =
  let c = S27.circuit () in
  let g, _, _, a = run_pipeline c in
  List.iter
    (fun e ->
      let src = Netgraph.net_src g e in
      Alcotest.(check bool) "crosses" true
        (Array.exists
           (fun v -> a.Assign.partition_of.(v) <> a.Assign.partition_of.(src))
           (Netgraph.net_sinks g e)))
    a.Assign.cut_nets

let test_merging_never_hurts_cuts () =
  (* merging can only remove cut nets relative to the raw clustering *)
  let c = Generator.small_random ~seed:77L ~n_pi:6 ~n_dff:5 ~n_gates:60 in
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  let params = { Params.default with Params.l_k = 6 } in
  let rng = Prng.create 4L in
  let flow = Flow.saturate g params rng in
  let clustering = Cluster.make_group c g sb flow params in
  let before = List.length (Cluster.cut_nets clustering g) in
  let a = Assign.run c g clustering params rng in
  Alcotest.(check bool) "merge helps" true (List.length a.Assign.cut_nets <= before)

let test_paper_example_shape () =
  (* the paper's worked example: s27 with l_k = 3 gives 4 partitions
     (Fig. 7); our graph includes the 4 PIs as vertices, so allow a small
     neighbourhood around 4 *)
  let c = S27.circuit () in
  let _, _, _, a = run_pipeline ~l_k:3 c in
  let n = List.length a.Assign.partitions in
  Alcotest.(check bool) "about four partitions" true (n >= 3 && n <= 7)

let prop_valid_partitions =
  QCheck.Test.make ~name:"assign output is a valid partitioning" ~count:15
    QCheck.(pair (int_bound 10_000) (int_range 4 12))
    (fun (seed, l_k) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 71)) ~n_pi:5
          ~n_dff:6 ~n_gates:45
      in
      let g = To_graph.partition_view c in
      let sb = Scc_budget.create c g in
      let params = { Params.default with Params.l_k } in
      let rng = Prng.create (Int64.of_int (seed * 3)) in
      let flow = Flow.saturate g params rng in
      let clustering = Cluster.make_group c g sb flow params in
      let a = Assign.run c g clustering params rng in
      let seen = Array.make (Netgraph.n_nodes g) 0 in
      List.iter
        (fun p -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) p.Assign.vertices)
        a.Assign.partitions;
      Array.for_all (fun k -> k = 1) seen
      && List.for_all
           (fun p -> p.Assign.oversize || p.Assign.input_count <= l_k)
           a.Assign.partitions)

(* Goldens pinning the partitions bit for bit: a digest of the cut nets
   and the partition iotas, recorded before the flow kernel and the
   assign scoring were rewritten for speed. Any change to tie-breaking
   in the Dijkstra heap, the PRNG stream or the merge choice moves them. *)
let digest (a : Assign.t) =
  let ints l = String.concat "," (List.map string_of_int l) in
  let iotas =
    List.map (fun (p : Assign.partition) -> p.Assign.input_count)
      a.Assign.partitions
  in
  Digest.to_hex (Digest.string (ints a.Assign.cut_nets ^ ";" ^ ints iotas))

let test_golden_partitions () =
  List.iter
    (fun (name, expected, cuts) ->
      let r = Merced.run ~params:Params.default (Benchmarks.circuit name) in
      let a = r.Merced.assignment in
      Alcotest.(check int) (name ^ " cut nets") cuts
        (List.length a.Assign.cut_nets);
      Alcotest.(check string) (name ^ " digest") expected (digest a))
    [
      ("s5378", "6fee7446be3a8060826121bebb4202ea", 693);
      ("s9234.1", "419ac803125e6fc0dc659cd0e5c9b20f", 1643);
    ]

(* s1423 forms 355 clusters: at a cap of 8 candidates the greedy steps
   go through all three candidate paths — pool sampling far above the
   cap, the partial Fisher-Yates just above it, the full list below *)
let test_golden_small_cap () =
  let c = Benchmarks.circuit "s1423" in
  let params = { Params.default with Params.max_merge_candidates = 8 } in
  let g = To_graph.partition_view c in
  let csr = Csr.of_netgraph g in
  let sb = Scc_budget.create c g in
  let rng = Prng.create params.Params.seed in
  let flow = Flow.saturate ~csr g params rng in
  let clustering = Cluster.make_group ~csr c g sb flow params in
  let a = Assign.run ~csr c g clustering params rng in
  Alcotest.(check int) "clusters" 355 (List.length clustering.Cluster.clusters);
  Alcotest.(check int) "merges" 304 a.Assign.merges;
  Alcotest.(check int) "partitions" 51 (List.length a.Assign.partitions);
  Alcotest.(check string) "digest" "4c6ce88c9920998173416d6380716c07"
    (digest a)

let suite =
  [
    Alcotest.test_case "partitions cover V once" `Quick test_partitions_cover;
    Alcotest.test_case "input constraint respected" `Quick test_constraint_respected;
    Alcotest.test_case "merging reduces cluster count" `Quick test_merging_reduces_count;
    Alcotest.test_case "merged_from conserves clusters" `Quick test_merged_from_accounting;
    Alcotest.test_case "cut nets cross partitions" `Quick test_cut_nets_consistent;
    Alcotest.test_case "merging never adds cuts" `Quick test_merging_never_hurts_cuts;
    Alcotest.test_case "paper worked example shape" `Quick test_paper_example_shape;
    Alcotest.test_case "golden partitions (s5378, s9234.1)" `Quick
      test_golden_partitions;
    Alcotest.test_case "golden assign at 8 candidates (s1423)" `Quick
      test_golden_small_cap;
    QCheck_alcotest.to_alcotest prop_valid_partitions;
  ]
