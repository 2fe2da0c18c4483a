(* One circuit's ops in a fresh process. The supervisor reads this
   process's standard output, one record per line:

     setup <seconds>                 median read+parse time of the netlist
     begin <op>                      the op's time limit starts now
     value <name> <number>
     layer <name> <wall_s> <cpu_s> <alloc_words>
     digest <hex>
     end <op> ok|check|error <seconds> [message]
     rss <megabytes>                 peak resident set of this process *)

module Circuit = Ppet_netlist.Circuit
module Bench_parser = Ppet_netlist.Bench_parser
module Bench_writer = Ppet_netlist.Bench_writer
module Domain_pool = Ppet_parallel.Domain_pool
module Batch = Ppet_bist.Fault_engine.Batch

let emit fmt = Printf.ksprintf (fun s -> print_string s; print_char '\n'; flush stdout) fmt

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set from the kernel; falls back to the OCaml heap's
   high-water mark where /proc is absent. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> loop ()
        in
        loop ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Reading and parsing take milliseconds, so setup repeats them, at least
   [setup_min_reps] times and until they add up to [setup_floor_s], and
   reports the median. *)
let setup_min_reps = 5
let setup_floor_s = 0.2
let setup_max_reps = 41

let setup path =
  let parse () =
    let text = read_file path in
    (text, Bench_parser.parse_string ~title:(Filename.remove_extension (Filename.basename path)) text)
  in
  let (text, c), t = timed parse in
  let rec more samples total n =
    if n >= setup_max_reps || (n >= setup_min_reps && total >= setup_floor_s) then samples
    else
      let _, t = timed parse in
      more (t :: samples) (total +. t) (n + 1)
  in
  let samples = more [ t ] t 1 in
  if Bench_writer.to_string c <> text then
    failwith "parsed netlist does not write back to the file it came from";
  (c, median samples)

(* A backstop for a worker whose supervisor is gone: SIGALRM's default
   action ends the process a few seconds after the supervisor would have
   killed it, even inside a loop that never returns to OCaml code. *)
let die_after limit = ignore (Unix.alarm (int_of_float (Float.ceil limit) + 5))

let run ~(workload : Workload.t) ~seed ~traced ~ops ~bench =
  die_after Workload.setup_limit;
  let c, setup_s = setup bench in
  emit "setup %.9f" setup_s;
  let params = Workload.params workload in
  let pool =
    if workload.Workload.jobs > 1 then
      Some (Domain_pool.create ~jobs:workload.Workload.jobs)
    else None
  in
  let policy = Batch.policy ?pool ~cutover:params.Ppet_core.Params.fault_cutover () in
  let compiled = ref None in
  let need () =
    match !compiled with
    | Some k -> k
    | None -> failwith "compile did not finish"
  in
  List.iter
    (fun op ->
      let tbl = Hashtbl.create 16 in
      let span = if traced then Layer.traced tbl else Layer.off in
      let body () =
        match op with
        | Workload.Compile ->
          let k, res = Ops.compile ~traced span params c in
          compiled := Some k;
          res
        | Workload.Selftest ->
          Ops.selftest span ~policy ~max_width:workload.Workload.max_width ~seed c
            (need ())
        | Workload.Analyze -> Ops.analyze span c
        | Workload.Verify -> Ops.verify span c (need ())
        | Workload.Hang -> Ops.hang ()
      in
      die_after (Workload.limit op);
      emit "begin %s" (Workload.op_name op);
      let outcome =
        match timed body with
        | res, secs -> (
          match res.Ops.check () with
          | () -> Ok (res, secs)
          | exception Ops.Check_failed msg -> Error ("check", msg, secs)
          | exception e -> Error ("check", Printexc.to_string e, secs))
        | exception Ops.Check_failed msg -> Error ("check", msg, 0.0)
        | exception e -> Error ("error", Printexc.to_string e, 0.0)
      in
      List.iter
        (fun (name, (s : Layer.stat)) ->
          emit "layer %s %.9f %.9f %.0f" name s.Layer.wall s.Layer.cpu s.Layer.words)
        (Layer.sorted tbl);
      match outcome with
      | Ok (res, secs) ->
        List.iter (fun (k, v) -> emit "value %s %.17g" k v) res.Ops.values;
        Option.iter (emit "digest %s") res.Ops.digest;
        emit "end %s ok %.9f" (Workload.op_name op) secs
      | Error (status, msg, secs) ->
        let msg = String.map (function '\n' | '\r' -> ' ' | ch -> ch) msg in
        emit "end %s %s %.9f %s" (Workload.op_name op) status secs msg)
    ops;
  Option.iter Domain_pool.shutdown pool;
  ignore (Unix.alarm 0);
  emit "rss %.3f" (peak_rss_mb ())
