module Netgraph = Ppet_digraph.Netgraph
module Dijkstra = Ppet_digraph.Dijkstra
module Prng = Ppet_digraph.Prng

let simple () =
  (* 0 -e0(1)-> 1 -e1(1)-> 2 ; 0 -e2(3)-> 2 *)
  let g = Netgraph.create 3 in
  let e0 = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let e1 = Netgraph.add_net g ~src:1 ~sinks:[ 2 ] in
  let e2 = Netgraph.add_net g ~src:0 ~sinks:[ 2 ] in
  (g, [| 1.0; 1.0; 3.0 |], e0, e1, e2)

let test_shortest () =
  let g, dist, _, _, _ = simple () in
  let t = Dijkstra.run g ~dist ~src:0 in
  Alcotest.(check (float 1e-9)) "d0" 0.0 t.Dijkstra.dist.(0);
  Alcotest.(check (float 1e-9)) "d1" 1.0 t.Dijkstra.dist.(1);
  Alcotest.(check (float 1e-9)) "d2" 2.0 t.Dijkstra.dist.(2)

let test_tree_nets () =
  let g, dist, e0, e1, _ = simple () in
  let t = Dijkstra.run g ~dist ~src:0 in
  let nets = Array.copy t.Dijkstra.tree_nets in
  Array.sort compare nets;
  Alcotest.(check (array int)) "tree follows cheap path" [| e0; e1 |] nets

let test_path_to () =
  let g, dist, e0, e1, _ = simple () in
  let t = Dijkstra.run g ~dist ~src:0 in
  Alcotest.(check (list int)) "path" [ e0; e1 ] (Dijkstra.path_to t g 2)

let test_unreachable () =
  let g = Netgraph.create 3 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let t = Dijkstra.run g ~dist:[| 1.0 |] ~src:0 in
  Alcotest.(check bool) "2 unreachable" true (t.Dijkstra.dist.(2) = infinity);
  Alcotest.check_raises "path raises" Not_found (fun () ->
      ignore (Dijkstra.path_to t g 2))

let test_multisink_costs_once () =
  (* one net reaching two sinks: both get distance = weight of that net *)
  let g = Netgraph.create 3 in
  let e = Netgraph.add_net g ~src:0 ~sinks:[ 1; 2 ] in
  let t = Dijkstra.run g ~dist:[| 2.5 |] ~src:0 in
  Alcotest.(check (float 1e-9)) "sink1" 2.5 t.Dijkstra.dist.(1);
  Alcotest.(check (float 1e-9)) "sink2" 2.5 t.Dijkstra.dist.(2);
  Alcotest.(check (array int)) "tree has one net" [| e |] t.Dijkstra.tree_nets

let test_negative_rejected () =
  let g = Netgraph.create 2 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra.run: negative net distance") (fun () ->
      ignore (Dijkstra.run g ~dist:[| -1.0 |] ~src:0))

(* property: triangle inequality of the computed distances over the
   relaxation structure, and tree consistency d(v) = d(src e) + w(e) *)
let prop_relaxed =
  QCheck.Test.make ~name:"dijkstra fixpoint: no edge can relax further" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 5)) in
      let n = 2 + Prng.int rng 30 in
      let g = Netgraph.create n in
      let m = 3 * n in
      let w = Array.init m (fun _ -> Prng.float rng 10.0) in
      for _ = 1 to m do
        let s = Prng.int rng n in
        let k = 1 + Prng.int rng 3 in
        let sinks = List.init k (fun _ -> Prng.int rng n) in
        ignore (Netgraph.add_net g ~src:s ~sinks)
      done;
      let t = Dijkstra.run g ~dist:w ~src:0 in
      let ok = ref true in
      Netgraph.iter_nets g (fun e ~src ~sinks ->
          Array.iter
            (fun v ->
              if t.Dijkstra.dist.(src) +. w.(e) < t.Dijkstra.dist.(v) -. 1e-9
              then ok := false)
            sinks);
      (* via-net consistency *)
      for v = 0 to n - 1 do
        let e = t.Dijkstra.via.(v) in
        if e >= 0 then begin
          let s = Netgraph.net_src g e in
          if abs_float (t.Dijkstra.dist.(s) +. w.(e) -. t.Dijkstra.dist.(v)) > 1e-9
          then ok := false
        end
      done;
      !ok)

(* property: a workspace reused across many runs (different sources,
   different weights) gives exactly what fresh runs give — distances,
   via nets, and tree_nets in the same order; the reuse resets only the
   vertices the previous run reached, which this pins *)
let prop_run_into_reuse =
  QCheck.Test.make ~name:"run_into reuse = fresh run" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 17)) in
      let n = 2 + Prng.int rng 25 in
      let g = Netgraph.create n in
      let m = 3 * n in
      let w = Array.init m (fun _ -> Prng.float rng 10.0) in
      for _ = 1 to m do
        let s = Prng.int rng n in
        let sinks = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
        ignore (Netgraph.add_net g ~src:s ~sinks)
      done;
      let ws = Dijkstra.workspace g in
      let ok = ref true in
      for round = 0 to 4 do
        let dist = Array.map (fun x -> x +. float_of_int round) w in
        let src = Prng.int rng n in
        let fresh = Dijkstra.run g ~dist ~src in
        Dijkstra.run_into ws g ~dist ~src;
        let reused = Dijkstra.last_tree ws in
        if
          Array.to_list reused.Dijkstra.dist <> Array.to_list fresh.Dijkstra.dist
          || Array.to_list reused.Dijkstra.via <> Array.to_list fresh.Dijkstra.via
          || reused.Dijkstra.tree_nets <> fresh.Dijkstra.tree_nets
          || Dijkstra.tree_net_count ws <> Array.length fresh.Dijkstra.tree_nets
        then ok := false
      done;
      !ok)

let test_run_into_too_small () =
  let g = Netgraph.create 2 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let ws = Dijkstra.workspace g in
  let _ = Netgraph.add_net g ~src:1 ~sinks:[ 0 ] in
  Alcotest.check_raises "stale workspace"
    (Invalid_argument "Dijkstra.run_into: workspace too small for this graph")
    (fun () -> Dijkstra.run_into ws g ~dist:[| 1.0; 1.0 |] ~src:0)

(* a run that raises midway leaves discovered vertices no reached list
   records; the next run on the workspace must still start clean *)
let test_run_into_recovers_after_raise () =
  let g = Netgraph.create 4 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1; 2 ] in
  let _ = Netgraph.add_net g ~src:1 ~sinks:[ 3 ] in
  let _ = Netgraph.add_net g ~src:2 ~sinks:[ 3 ] in
  let ws = Dijkstra.workspace g in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra.run: negative net distance") (fun () ->
      Dijkstra.run_into ws g ~dist:[| 1.0; -1.0; 1.0 |] ~src:0);
  let dist = [| 1.0; 2.0; 1.0 |] in
  Dijkstra.run_into ws g ~dist ~src:1;
  let fresh = Dijkstra.run g ~dist ~src:1 in
  let reused = Dijkstra.last_tree ws in
  Alcotest.(check (array (float 0.0))) "dist" fresh.Dijkstra.dist
    reused.Dijkstra.dist;
  Alcotest.(check (array int)) "via" fresh.Dijkstra.via reused.Dijkstra.via;
  Alcotest.(check (array int)) "tree nets" fresh.Dijkstra.tree_nets
    reused.Dijkstra.tree_nets

let suite =
  [
    Alcotest.test_case "shortest distances" `Quick test_shortest;
    Alcotest.test_case "tree nets" `Quick test_tree_nets;
    Alcotest.test_case "path reconstruction" `Quick test_path_to;
    Alcotest.test_case "unreachable vertices" `Quick test_unreachable;
    Alcotest.test_case "multi-sink net costs once" `Quick test_multisink_costs_once;
    Alcotest.test_case "workspace recovers after a raising run" `Quick
      test_run_into_recovers_after_raise;
    Alcotest.test_case "negative distance rejected" `Quick test_negative_rejected;
    Alcotest.test_case "run_into rejects a stale workspace" `Quick test_run_into_too_small;
    QCheck_alcotest.to_alcotest prop_relaxed;
    QCheck_alcotest.to_alcotest prop_run_into_reuse;
  ]
