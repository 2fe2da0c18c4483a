type tree = {
  dist : float array;
  via : int array;
  tree_nets : int array;
}

(* Everything a run needs, preallocated once and reused: the
   multicommodity saturation loop calls Dijkstra thousands of times on
   one graph. A run touches only the vertices it reaches (often well
   under half the graph), so it records them and the next run resets
   exactly those — dist/via/settled are all-infinity/-1/false outside
   the last run's reached set, never refilled in O(n). *)
type workspace = {
  ws_dist : float array;
  ws_via : int array;
  ws_settled : bool array;
  ws_heap : Heap.t;
  ws_reached : int array;   (* settled vertices of the last run, in order *)
  mutable ws_n_reached : int;
  mutable ws_clean : bool;  (* false while a run is in flight (or raised) *)
  ws_net_seen : int array;  (* stamp per net, for tree-net dedup *)
  ws_nets : int array;      (* tree nets of the last run *)
  mutable ws_n_nets : int;
  mutable ws_stamp : int;
  mutable ws_pops : int;
  ws_csr : Csr.t option;
      (* flat adjacency snapshot; when present, [run_into] relaxes over
         its rows (same order as the Netgraph queries, no per-vertex
         array fetches) *)
}

let workspace ?csr g =
  let n = Netgraph.n_nodes g in
  let m = Netgraph.n_nets g in
  (match csr with
   | Some c when Csr.n_nodes c <> n || Csr.n_nets c <> m ->
     invalid_arg "Dijkstra.workspace: csr does not match graph"
   | Some _ | None -> ());
  {
    ws_dist = Array.make (max n 1) infinity;
    ws_via = Array.make (max n 1) (-1);
    ws_settled = Array.make (max n 1) false;
    ws_heap = Heap.create n;
    ws_reached = Array.make (max n 1) 0;
    ws_n_reached = 0;
    ws_clean = true;
    ws_net_seen = Array.make (max m 1) 0;
    ws_nets = Array.make (max m 1) 0;
    ws_n_nets = 0;
    ws_stamp = 0;
    ws_pops = 0;
    ws_csr = csr;
  }

let run_into ws g ~dist ~src =
  let n = Netgraph.n_nodes g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.run: bad source";
  if Array.length ws.ws_dist < n || Array.length ws.ws_net_seen < Netgraph.n_nets g
  then invalid_arg "Dijkstra.run_into: workspace too small for this graph";
  if Array.length dist < Netgraph.n_nets g then
    invalid_arg "Dijkstra.run: distance array shorter than the net count";
  Netgraph.freeze g;
  let d = ws.ws_dist in
  let via = ws.ws_via in
  let settled = ws.ws_settled in
  let heap = ws.ws_heap in
  let reached = ws.ws_reached in
  if ws.ws_clean then
    for i = 0 to ws.ws_n_reached - 1 do
      let v = Array.unsafe_get reached i in
      Array.unsafe_set d v infinity;
      Array.unsafe_set via v (-1);
      Array.unsafe_set settled v false
    done
  else begin
    (* the last run raised midway, leaving discovered vertices that no
       list records: fall back to a full reset *)
    Array.fill d 0 (Array.length d) infinity;
    Array.fill via 0 (Array.length via) (-1);
    Array.fill settled 0 (Array.length settled) false
  end;
  ws.ws_clean <- false;
  ws.ws_n_reached <- 0;
  ws.ws_n_nets <- 0;
  Heap.clear heap;
  ws.ws_stamp <- ws.ws_stamp + 1;
  let stamp = ws.ws_stamp in
  let net_seen = ws.ws_net_seen and nets = ws.ws_nets in
  (* settle [v]; the net it was settled through is final now, and the
     first settle through a net enters it into the tree *)
  let settle v =
    Array.unsafe_set settled v true;
    Array.unsafe_set reached ws.ws_n_reached v;
    ws.ws_n_reached <- ws.ws_n_reached + 1;
    let e = Array.unsafe_get via v in
    if e >= 0 && Array.unsafe_get net_seen e <> stamp then begin
      Array.unsafe_set net_seen e stamp;
      Array.unsafe_set nets ws.ws_n_nets e;
      ws.ws_n_nets <- ws.ws_n_nets + 1
    end
  in
  d.(src) <- 0.0;
  Heap.insert heap src 0.0;
  (match ws.ws_csr with
   | None ->
     while not (Heap.is_empty heap) do
       let v = Heap.pop_min_key heap in
       if not settled.(v) then begin
         settle v;
         let dv = d.(v) in
         Array.iter
           (fun e ->
             let w = dist.(e) in
             if w < 0.0 then invalid_arg "Dijkstra.run: negative net distance";
             let cand = dv +. w in
             Array.iter
               (fun u ->
                 if (not settled.(u)) && cand < d.(u) then begin
                   d.(u) <- cand;
                   via.(u) <- e;
                   Heap.insert_or_decrease heap u d
                 end)
               (Netgraph.net_sinks g e))
           (Netgraph.out_nets g v)
       end
     done
   | Some csr ->
     (* same relaxation sequence over the flat rows (CSR rows mirror the
        Netgraph query orders); indices are in range by construction *)
     let out_off = csr.Csr.out_off and out_net = csr.Csr.out_net in
     let sink_off = csr.Csr.sink_off and sink = csr.Csr.sink in
     while not (Heap.is_empty heap) do
       (* the popped priority is d.(v) whenever the pop settles, so the
          tuple-free pop loses nothing *)
       let v = Heap.pop_min_key heap in
       if not (Array.unsafe_get settled v) then begin
         settle v;
         let dv = Array.unsafe_get d v in
         for i = Array.unsafe_get out_off v
             to Array.unsafe_get out_off (v + 1) - 1 do
           let e = Array.unsafe_get out_net i in
           let w = Array.unsafe_get dist e in
           if w < 0.0 then invalid_arg "Dijkstra.run: negative net distance";
           let cand = dv +. w in
           for j = Array.unsafe_get sink_off e
               to Array.unsafe_get sink_off (e + 1) - 1 do
             let u = Array.unsafe_get sink j in
             if (not (Array.unsafe_get settled u))
                && cand < Array.unsafe_get d u
             then begin
               Array.unsafe_set d u cand;
               Array.unsafe_set via u e;
               Heap.insert_or_decrease heap u d
             end
           done
         done
       end
     done);
  (* decrease-key keeps each vertex in the heap at most once, so every
     pop settled a vertex *)
  ws.ws_clean <- true;
  ws.ws_pops <- ws.ws_pops + ws.ws_n_reached

let tree_net_count ws = ws.ws_n_nets

let tree_net ws i =
  if i < 0 || i >= ws.ws_n_nets then invalid_arg "Dijkstra.tree_net: index";
  Array.unsafe_get ws.ws_nets i

let heap_pops ws = ws.ws_pops

let last_tree ws =
  {
    dist = Array.copy ws.ws_dist;
    via = Array.copy ws.ws_via;
    tree_nets = Array.sub ws.ws_nets 0 ws.ws_n_nets;
  }

let run g ~dist ~src =
  let ws = workspace g in
  run_into ws g ~dist ~src;
  last_tree ws

let path_to t g v =
  if t.dist.(v) = infinity then raise Not_found;
  let rec walk v acc =
    let e = t.via.(v) in
    if e < 0 then acc else walk (Netgraph.net_src g e) (e :: acc)
  in
  walk v []
