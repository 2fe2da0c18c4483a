(* The benchmark's own tests: the per-op time limit kills and counts a
   hanging op and leaves no process behind, and a worker without its
   supervisor ends itself; a wrong output fails its op;
   one seed repeats its quality metrics and per-layer counts exactly, the
   traced pass agrees with the untraced one, and another seed changes the
   inputs.

   Usage: test_perfbench.exe PATH/TO/main.exe *)

open Perfbench
module S = Supervisor

let failures = ref 0

let expect cond fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s: %s\n%!" (if cond then "ok" else "FAIL") msg;
      if not cond then incr failures)
    fmt

let exe = Sys.argv.(1)
let dir = "perfbench-test-work"

let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let test_kill_and_count () =
  let workload = Workload.tiny in
  let files = Bench.prepare ~dir ~workload ~seed:0L in
  let name, bench = List.hd files in
  let limit = function Workload.Hang -> 1.0 | op -> Workload.limit op in
  let t0 = Unix.gettimeofday () in
  let c =
    S.run_circuit ~limit ~exe ~workload ~seed:0L ~traced:false
      ~ops:[ Workload.Compile; Workload.Hang; Workload.Analyze ] ~bench name
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let status op = (List.find (fun (r : S.op_result) -> r.S.op = op) c.S.ops) in
  let compile = status Workload.Compile and hang = status Workload.Hang in
  let analyze = status Workload.Analyze in
  expect (compile.S.status = S.Ok) "the op before the hang completes";
  expect (hang.S.status = S.Timed_out) "the hanging op is killed";
  expect (hang.S.secs = 1.0) "the hanging op counts at its limit (%.3fs)" hang.S.secs;
  expect (analyze.S.status = S.Not_run && analyze.S.secs = Workload.limit Workload.Analyze)
    "the op after the hang is not run and counts at its limit";
  expect
    (elapsed < compile.S.secs +. 1.0 +. 5.0)
    "the supervisor returns soon after the limit (%.2fs, compile %.2fs)" elapsed
    compile.S.secs;
  expect (no_children ()) "no worker process is left behind";
  let pass = [ c ] in
  expect (Summary.failed pass = 2 && Summary.attempted pass = 3)
    "two of three ops count as failed";
  expect (Summary.wrong pass = []) "a hang is a failure, not a wrong output";
  expect
    (Float.abs (Summary.total_s pass -. (compile.S.secs +. 1.0 +. Workload.limit Workload.Analyze)) < 1e-9)
    "total_s counts failed ops at their limits"

(* A worker left without its supervisor ends itself shortly after the
   op's limit. *)
let test_orphan_backstop () =
  let files = Bench.prepare ~dir ~workload:Workload.tiny ~seed:0L in
  let _, bench = List.hd files in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process exe
      [| exe; "worker"; "--workload"; "tiny"; "--seed"; "0"; "--trace"; "0";
         "--ops"; "hang"; "--bench"; bench |]
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let elapsed = Unix.gettimeofday () -. t0 in
  expect (status = Unix.WSIGNALED Sys.sigalrm && elapsed < 15.0)
    "an unsupervised hanging worker ends itself (%.1fs)" elapsed

let test_wrong_output () =
  let r op status =
    { S.op; status; secs = 1.0; values = []; layers = []; digest = None }
  in
  let pass =
    [ { S.circuit = "x"; setup_s = Some 0.1; rss_mb = 1.0; wall_s = 2.0;
        ops = [ r Workload.Compile S.Ok; r Workload.Verify (S.Wrong "differs") ] } ]
  in
  expect (Summary.wrong pass = [ "differs" ]) "a failed output check is a wrong output";
  expect (Summary.failed pass = 1) "a failed output check fails its op"

let metric name ms = (List.find (fun (x : Summary.metric) -> x.Summary.name = name) ms).Summary.value

(* Per-layer values that are counts, not times: they must repeat exactly. *)
let counts =
  [ "core.flow_trees"; "core.flow_alloc_mw"; "core.assign_alloc_mw"; "core.partitions";
    "retiming.kept_pct"; "analysis.timeouts"; "analysis.pruned_pct"; "bist.word_evals";
    "bist.faults_simulated"; "bist.detect_ratio"; "bist.fault_sim_alloc_mw" ]

let quality_names =
  [ "cut_nets"; "sigma_dff"; "area_saving_pp"; "coverage_pct"; "test_cycles"; "mux_cells" ]

let test_repeatability () =
  let workload = Workload.tiny in
  let run ~seed ~trace =
    let files = Bench.prepare ~dir ~workload ~seed in
    Bench.run ~exe ~workload ~seed ~seconds:0.0 ~trace files
  in
  let a = run ~seed:1L ~trace:false and b = run ~seed:1L ~trace:false in
  let ta = run ~seed:1L ~trace:true and tb = run ~seed:1L ~trace:true in
  List.iter
    (fun (r : Bench.report) ->
      expect (r.Bench.problems = []) "run is correct (%s)" (String.concat "; " r.Bench.problems);
      expect (Bench.failed r = 0) "no op fails on the tiny workload")
    [ a; b; ta; tb ];
  List.iter
    (fun n ->
      expect (metric n a.Bench.metrics = metric n b.Bench.metrics) "%s repeats for one seed" n)
    quality_names;
  List.iter
    (fun n ->
      expect (metric n ta.Bench.metrics = metric n tb.Bench.metrics) "%s repeats for one seed" n)
    counts;
  (* the traced pass reproduced the untraced pass: Bench.run compares
     every finished op's values and partition digest, so no problem above
     means they agree; check the digests are really there *)
  let digests pass =
    List.concat_map
      (fun (c : S.circuit) -> List.filter_map (fun (o : S.op_result) -> o.S.digest) c.S.ops)
      pass
  in
  (match ta.Bench.traced with
   | Some t ->
     expect
       (digests t <> [] && digests t = digests (List.hd ta.Bench.passes))
       "the traced re-staging reproduces Merced.run's partitions";
     expect (Summary.quality t = Summary.quality (List.hd ta.Bench.passes))
       "traced and untraced passes agree on every quality metric"
   | None -> expect false "a traced run has a traced pass");
  let text seed =
    List.map
      (fun (_, path) -> In_channel.with_open_bin path In_channel.input_all)
      (Bench.prepare ~dir ~workload ~seed)
  in
  expect (text 1L = text 1L) "one seed generates the same inputs";
  expect (text 1L <> text 2L) "another seed changes the generated inputs"

let () =
  test_kill_and_count ();
  test_orphan_backstop ();
  test_wrong_output ();
  test_repeatability ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
