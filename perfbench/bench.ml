(* One benchmark run: inputs from the seed, then untraced passes over the
   workload until the measuring time is used (at least one), each metric
   the median over passes; with tracing, one untraced and one traced pass,
   which must give the same results. *)

module S = Supervisor

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Netlists are generated and written before any timing; the workers
   only ever see the .bench files. *)
let prepare ~dir ~(workload : Workload.t) ~seed =
  let dir = Filename.concat dir (Printf.sprintf "%s-%Ld" workload.Workload.name seed) in
  mkdir_p dir;
  List.map
    (fun name ->
      let path = Filename.concat dir (name ^ ".bench") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Workload.netlist ~seed name));
      (name, path))
    workload.Workload.circuits

type report = {
  passes : S.circuit list list;  (* untraced, in run order *)
  traced : S.circuit list option;
  problems : string list;        (* wrong outputs or irreproducible results *)
  metrics : Summary.metric list;
}

let run_pass ~exe ~(workload : Workload.t) ~seed ~traced files =
  List.map
    (fun (name, bench) ->
      S.run_circuit ~exe ~workload ~seed ~traced ~ops:workload.Workload.ops
        ~bench name)
    files

(* Each finished op's deterministic results, keyed by circuit and op. *)
let results pass =
  List.concat_map
    (fun (c : S.circuit) ->
      List.filter_map
        (fun (r : S.op_result) ->
          if S.ok r then Some ((c.S.circuit, r.S.op), (r.S.values, r.S.digest)) else None)
        c.S.ops)
    pass

(* Ops that finished in both passes gave the same results. *)
let agree p q =
  let rq = results q in
  List.for_all
    (fun (k, v) -> match List.assoc_opt k rq with Some v' -> v = v' | None -> true)
    (results p)

let run ~exe ~workload ~seed ~seconds ~trace files =
  let t0 = Unix.gettimeofday () in
  let rec passes acc =
    let acc = run_pass ~exe ~workload ~seed ~traced:false files :: acc in
    if trace || Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else passes acc
  in
  let passes = passes [] in
  let traced =
    if trace then Some (run_pass ~exe ~workload ~seed ~traced:true files) else None
  in
  let first = List.hd passes in
  let problems =
    List.concat_map Summary.wrong (passes @ Option.to_list traced)
    @ List.concat_map
        (fun p -> if agree first p then [] else [ "a repeated pass gave other results" ])
        (List.tl passes @ Option.to_list traced)
  in
  let metrics =
    match traced with
    | Some t -> Summary.per_layer ~untraced:first t
    | None ->
      let per_pass = List.map Summary.end_to_end passes in
      List.map
        (fun (x : Summary.metric) ->
          let vs =
            List.map
              (fun ms -> (List.find (fun (y : Summary.metric) -> y.Summary.name = x.Summary.name) ms).Summary.value)
              per_pass
          in
          { x with Summary.value = Worker.median vs })
        (List.hd per_pass)
  in
  { passes; traced; problems; metrics }

let measured r = r.passes @ Option.to_list r.traced
let attempted r = List.fold_left (fun a p -> a + Summary.attempted p) 0 (measured r)
let failed r = List.fold_left (fun a p -> a + Summary.failed p) 0 (measured r)

let json r =
  Summary.to_json ~correct:(r.problems = []) ~attempted:(attempted r)
    ~failed:(failed r) r.metrics

let status_text = function
  | S.Ok -> "ok"
  | S.Wrong msg -> "WRONG (" ^ msg ^ ")"
  | S.Failed msg -> "FAILED (" ^ msg ^ ")"
  | S.Timed_out -> "TIMED OUT"
  | S.Not_run -> "NOT RUN"

let print_human oc r =
  let labelled =
    List.mapi (fun i p -> (Printf.sprintf "pass %d" (i + 1), p)) r.passes
    @ List.map (fun p -> ("traced", p)) (Option.to_list r.traced)
  in
  List.iter
    (fun (label, pass) ->
      List.iter
        (fun (c : S.circuit) ->
          Printf.fprintf oc "%s %-10s setup %.4fs" label c.S.circuit
            (Option.value c.S.setup_s ~default:nan);
          List.iter
            (fun (o : S.op_result) ->
              Printf.fprintf oc "  %s %.3fs %s" (Workload.op_name o.S.op) o.S.secs
                (status_text o.S.status))
            c.S.ops;
          Printf.fprintf oc "  rss %.0fMB  wall %.2fs\n" c.S.rss_mb c.S.wall_s)
        pass)
    labelled;
  List.iter (Printf.fprintf oc "problem: %s\n") r.problems;
  List.iter
    (fun (x : Summary.metric) ->
      Printf.fprintf oc "%-34s %14.6g %s\n" x.Summary.name x.Summary.value x.Summary.unit_)
    r.metrics;
  flush oc
