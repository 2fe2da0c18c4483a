(** Single-source shortest paths over net distances (STEP 3.2 of the
    modified [Saturate_Network], Table 3).

    Traversing any branch of net [e] costs [dist.(e) >= 0]. The result
    records, for every reachable vertex, the net through which it was
    settled; the set of those nets is the shortest-path tree whose flow
    the saturation procedure increments. *)

type tree = {
  dist : float array;      (** vertex -> distance, [infinity] if unreachable *)
  via : int array;         (** vertex -> settling net id, [-1] for the source
                               and unreachable vertices *)
  tree_nets : int array;   (** distinct nets of the shortest-path tree, in
                               the order the run first settled a vertex
                               through them *)
}

val run : Netgraph.t -> dist:float array -> src:int -> tree
(** [dist.(e)] is the cost of net [e]; the array must cover every net.
    Raises [Invalid_argument] if it is too short or some relaxed net has
    a negative distance. *)

type workspace
(** Preallocated dist/parent/settled arrays, heap and tree-net buffer,
    reusable across runs on one graph — the saturation loop's per-call
    allocations removed. *)

val workspace : ?csr:Csr.t -> Netgraph.t -> workspace
(** A workspace sized for [g]'s current node and net counts. Passing
    [csr] (a {!Csr.of_netgraph} snapshot of the same graph) makes
    {!run_into} relax over the flat rows instead of the Netgraph
    queries — the identical relaxation sequence, minus the per-vertex
    array fetches. Raises [Invalid_argument] on a size mismatch. *)

val run_into : workspace -> Netgraph.t -> dist:float array -> src:int -> unit
(** Exactly {!run}, computing into the workspace and allocating nothing:
    the tree is read back with {!tree_net_count}/{!tree_net} (or copied
    out with {!last_tree}) until the next [run_into] on the workspace.
    Only the vertices the previous run reached are reset, so a run costs
    the part of the graph it reaches, not O(n). Raises
    [Invalid_argument] if the workspace is too small for the graph (e.g.
    nets were added after {!workspace}). *)

val tree_net_count : workspace -> int
(** Number of distinct nets in the last run's tree. *)

val tree_net : workspace -> int -> int
(** [tree_net ws i] is the [i]-th tree net of the last run, in
    [tree_nets] order, for [0 <= i < tree_net_count ws]. *)

val last_tree : workspace -> tree
(** A fresh copy of the last run's result. *)

val heap_pops : workspace -> int
(** Heap pops summed over every run on this workspace. The heap holds a
    vertex at most once (decrease-key), so this is also the number of
    vertices settled. *)

val path_to : tree -> Netgraph.t -> int -> int list
(** [path_to t g v] is the list of net ids on the tree path from the
    source to [v], source side first. Raises [Not_found] when [v] is
    unreachable. *)
