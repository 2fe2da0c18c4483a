(* The Merced benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   generates the workload's netlists from the seed, writes them as .bench
   files, then runs each circuit's ops in a fresh worker process under a
   per-op time limit. With --trace 0 it prints the end-to-end metrics,
   each the median over untraced passes repeated until S seconds have
   gone; with --trace 1, one untraced and one traced pass, and the
   per-layer metrics of the traced one. The last line of standard output
   is one JSON object; a human summary goes to standard error.

     main.exe worker ...

   is the worker process the benchmark starts for each circuit. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe worker --workload NAME --seed N --trace 0|1 --ops OPS \
     --bench FILE";
  exit 2

let parse_flags args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let flags = go [] args in
  fun k -> match List.assoc_opt k flags with Some v -> v | None -> usage ()

let workload_of name =
  match Workload.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
    exit 2

let int_flag get k =
  match int_of_string_opt (get k) with Some n -> n | None -> usage ()

let seed_flag get =
  match Int64.of_string_opt (get "--seed") with Some s -> s | None -> usage ()

let worker args =
  let get = parse_flags args in
  let ops =
    List.map
      (fun s -> match Workload.op_of_name s with Some op -> op | None -> usage ())
      (String.split_on_char ',' (get "--ops"))
  in
  Worker.run ~workload:(workload_of (get "--workload")) ~seed:(seed_flag get)
    ~traced:(get "--trace" = "1") ~ops ~bench:(get "--bench")

let bench args =
  let get = parse_flags args in
  let workload = workload_of (get "--workload") in
  let seed = seed_flag get in
  let seconds = float_of_int (int_flag get "--seconds") in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let t0 = Unix.gettimeofday () in
  let files = Bench.prepare ~dir:(Filename.concat "perfbench" ".work") ~workload ~seed in
  Printf.eprintf "inputs: %d netlists in %.2fs\n%!" (List.length files)
    (Unix.gettimeofday () -. t0);
  let report =
    Bench.run ~exe:Sys.executable_name ~workload ~seed ~seconds ~trace files
  in
  Bench.print_human stderr report;
  print_endline (Bench.json report)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "worker" :: args -> worker args
  | args -> bench args
