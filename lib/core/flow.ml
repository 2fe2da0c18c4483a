module Netgraph = Ppet_digraph.Netgraph
module Dijkstra = Ppet_digraph.Dijkstra
module Prng = Ppet_digraph.Prng
module Obs = Ppet_obs.Obs

type result = {
  distance : float array;
  flow : float array;
  visits : int array;
  iterations : int;
}

let saturate ?csr g (p : Params.t) rng =
  (match Params.validate p with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Flow.saturate: " ^ msg));
  Obs.span "flow.saturate" @@ fun () ->
  let n = Netgraph.n_nodes g in
  let m = Netgraph.n_nets g in
  let distance = Array.make m 1.0 in
  let flow = Array.make m 0.0 in
  let visits = Array.make n 0 in
  let iterations = ref 0 in
  if n > 0 && m > 0 then begin
    (* under-visited vertices, maintained as a compacting array *)
    let pending = Array.init n (fun v -> v) in
    let n_pending = ref n in
    let compact () =
      let k = ref 0 in
      for i = 0 to !n_pending - 1 do
        let v = pending.(i) in
        if visits.(v) <= p.Params.min_visit then begin
          pending.(!k) <- v;
          incr k
        end
      done;
      n_pending := !k
    in
    let ws = Dijkstra.workspace ?csr g in
    let bump_visits =
      match csr with
      | None ->
        fun e ->
          Array.iter
            (fun v -> visits.(v) <- visits.(v) + 1)
            (Netgraph.net_sinks g e)
      | Some c ->
        let sink_off = c.Ppet_digraph.Csr.sink_off
        and sink = c.Ppet_digraph.Csr.sink in
        fun e ->
          for j = sink_off.(e) to sink_off.(e + 1) - 1 do
            let v = sink.(j) in
            visits.(v) <- visits.(v) + 1
          done
    in
    (* Every net starts at flow 0 and gains the same delta per tree, so
       its flow and distance depend only on how many trees used it. The
       k-th values are computed once, by the same float operations as a
       per-net update, and looked up: an exp per tree net was about 5%
       of the flow time. *)
    let uses = Array.make m 0 in
    let flow_at = ref [| 0.0 |] and dist_at = ref [| 1.0 |] in
    let extend () =
      let len = Array.length !flow_at in
      let fa = Array.make (2 * len) 0.0 and da = Array.make (2 * len) 1.0 in
      Array.blit !flow_at 0 fa 0 len;
      Array.blit !dist_at 0 da 0 len;
      for j = len to (2 * len) - 1 do
        fa.(j) <- fa.(j - 1) +. p.Params.delta;
        da.(j) <- exp (p.Params.alpha *. fa.(j) /. p.Params.capacity)
      done;
      flow_at := fa;
      dist_at := da
    in
    let tree_nets = ref 0 in
    while !n_pending > 0 && !iterations < p.Params.max_iterations do
      let src = pending.(Prng.int rng !n_pending) in
      visits.(src) <- visits.(src) + 1;
      Dijkstra.run_into ws g ~dist:distance ~src;
      (* a net appears once per tree, so its flow, distance and sinks'
         visits are updated once, in any order *)
      let k = Dijkstra.tree_net_count ws in
      tree_nets := !tree_nets + k;
      for i = 0 to k - 1 do
        let e = Dijkstra.tree_net ws i in
        let u = uses.(e) + 1 in
        uses.(e) <- u;
        if u = Array.length !flow_at then extend ();
        flow.(e) <- !flow_at.(u);
        distance.(e) <- !dist_at.(u);
        bump_visits e
      done;
      incr iterations;
      compact ()
    done;
    Obs.add Obs.Metric.Flow_tree_nets !tree_nets;
    Obs.add Obs.Metric.Flow_heap_pops (Dijkstra.heap_pops ws)
  end;
  Obs.add Obs.Metric.Flow_iterations !iterations;
  { distance; flow; visits; iterations = !iterations }

let boundaries r =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun d -> Hashtbl.replace tbl d ()) r.distance;
  let ds = Hashtbl.fold (fun d () acc -> d :: acc) tbl [] in
  List.sort (fun a b -> compare b a) ds
