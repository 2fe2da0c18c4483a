module Flow = Ppet_core.Flow
module Params = Ppet_core.Params
module Netgraph = Ppet_digraph.Netgraph
module Prng = Ppet_digraph.Prng
module To_graph = Ppet_netlist.To_graph
module S27 = Ppet_netlist.S27
module Csr = Ppet_digraph.Csr
module Generator = Ppet_netlist.Generator

let params = { Params.default with Params.l_k = 3 }

let test_all_visited () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let r = Flow.saturate g params (Prng.create 1L) in
  Array.iteri
    (fun v n ->
      Alcotest.(check bool)
        (Printf.sprintf "vertex %d visited" v)
        true
        (n > params.Params.min_visit))
    r.Flow.visits

let test_distances_positive () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let r = Flow.saturate g params (Prng.create 1L) in
  Array.iter
    (fun d -> Alcotest.(check bool) "d >= 1" true (d >= 1.0))
    r.Flow.distance

let test_deterministic () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let a = Flow.saturate g params (Prng.create 7L) in
  let b = Flow.saturate g params (Prng.create 7L) in
  Alcotest.(check bool) "same distances" true (a.Flow.distance = b.Flow.distance);
  let c = Flow.saturate g params (Prng.create 8L) in
  Alcotest.(check bool) "different seed differs" true (a.Flow.distance <> c.Flow.distance)

let test_distance_flow_relation () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let r = Flow.saturate g params (Prng.create 3L) in
  Array.iteri
    (fun e f ->
      let expect = exp (params.Params.alpha *. f /. params.Params.capacity) in
      Alcotest.(check (float 1e-9)) "d = exp(alpha f / b)" expect r.Flow.distance.(e))
    r.Flow.flow

let test_scc_nets_congested () =
  (* the paper's Fig. 5 observation: loop nets absorb more flow *)
  let c = S27.circuit () in
  let g = To_graph.partition_view c in
  let sb = Ppet_retiming.Scc_budget.create c g in
  let r = Flow.saturate g params (Prng.create 5L) in
  let loop_flow = ref 0.0 and loop_n = ref 0 in
  let other_flow = ref 0.0 and other_n = ref 0 in
  for e = 0 to Netgraph.n_nets g - 1 do
    match Ppet_retiming.Scc_budget.net_scc sb e with
    | Some _ ->
      loop_flow := !loop_flow +. r.Flow.flow.(e);
      incr loop_n
    | None ->
      other_flow := !other_flow +. r.Flow.flow.(e);
      incr other_n
  done;
  let avg_loop = !loop_flow /. float_of_int !loop_n in
  let avg_other = !other_flow /. float_of_int !other_n in
  Alcotest.(check bool) "loops more congested" true (avg_loop > avg_other)

let test_boundaries_sorted () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let r = Flow.saturate g params (Prng.create 1L) in
  let bs = Flow.boundaries r in
  let rec descending = function
    | a :: (b :: _ as tl) -> a > b && descending tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly descending" true (descending bs);
  Alcotest.(check bool) "non-empty" true (bs <> [])

let test_max_iterations_cap () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let p = { params with Params.max_iterations = 3 } in
  let r = Flow.saturate g p (Prng.create 1L) in
  Alcotest.(check int) "capped" 3 r.Flow.iterations

let test_empty_graph () =
  let g = Netgraph.create 0 in
  let r = Flow.saturate g params (Prng.create 1L) in
  Alcotest.(check int) "no iterations" 0 r.Flow.iterations

let test_invalid_params () =
  let g = To_graph.partition_view (S27.circuit ()) in
  let p = { params with Params.delta = -1.0 } in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Flow.saturate g p (Prng.create 1L));
       false
     with Invalid_argument _ -> true)

(* The flat kernel (CSR rows, allocation-free Dijkstra, reached-set
   resets) against the Netgraph-query path: the same trees in the same
   order, so distance and flow agree to the bit, and visits and the
   tree count exactly. Ties are everywhere at the all-1.0 start, so any
   difference in relaxation order between the two paths shows here
   (both share the heap, whose tie-breaking the assign goldens pin). *)
let prop_csr_matches_netgraph =
  QCheck.Test.make ~name:"csr saturate = netgraph saturate (bit-equal)"
    ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 1 20))
    (fun (seed, min_visit) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int seed)
          ~n_pi:(2 + (seed mod 5)) ~n_dff:(seed mod 9)
          ~n_gates:(10 + (seed mod 80))
      in
      let g = To_graph.partition_view c in
      let p = { params with Params.min_visit } in
      let rng_seed = Int64.of_int (seed * 7) in
      let a = Flow.saturate g p (Prng.create rng_seed) in
      let b = Flow.saturate ~csr:(Csr.of_netgraph g) g p (Prng.create rng_seed) in
      let bits r = Array.map Int64.bits_of_float r in
      bits a.Flow.distance = bits b.Flow.distance
      && bits a.Flow.flow = bits b.Flow.flow
      && a.Flow.visits = b.Flow.visits
      && a.Flow.iterations = b.Flow.iterations)

let suite =
  [
    Alcotest.test_case "every vertex sampled" `Quick test_all_visited;
    Alcotest.test_case "distances at least 1" `Quick test_distances_positive;
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
    Alcotest.test_case "distance = exp(alpha f/b)" `Quick test_distance_flow_relation;
    Alcotest.test_case "SCC nets congested (Fig. 5)" `Quick test_scc_nets_congested;
    Alcotest.test_case "boundary stack sorted" `Quick test_boundaries_sorted;
    Alcotest.test_case "iteration cap" `Quick test_max_iterations_cap;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "invalid params rejected" `Quick test_invalid_params;
    QCheck_alcotest.to_alcotest prop_csr_matches_netgraph;
  ]
