(* Runs one circuit's ops in a fresh worker process (a new executable
   image, not a fork of this one) and enforces each op's wall-clock
   limit. A worker past its limit is killed and reaped; the op counts as
   failed at its full limit, and the ops after it as not run. *)

type status =
  | Ok
  | Wrong of string  (* its output check failed *)
  | Failed of string  (* raised, or the worker crashed *)
  | Timed_out
  | Not_run

type layer = { wall : float; cpu : float; words : float }

type op_result = {
  op : Workload.op;
  status : status;
  secs : float;  (* measured time; the limit when failed *)
  values : (string * float) list;
  layers : (string * layer) list;
  digest : string option;
}

type circuit = {
  circuit : string;
  setup_s : float option;
  ops : op_result list;
  rss_mb : float;
  wall_s : float;  (* the worker's whole life, parse repeats and checks included *)
}

let ok r = r.status = Ok

let worker_args ~(workload : Workload.t) ~seed ~traced ~ops bench =
  [ "worker"; "--workload"; workload.Workload.name; "--seed"; Int64.to_string seed;
    "--trace"; (if traced then "1" else "0");
    "--ops"; String.concat "," (List.map Workload.op_name ops);
    "--bench"; bench ]

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let run_circuit ?(limit = Workload.limit) ~exe ~workload ~seed ~traced ~ops
    ~bench name =
  let started = Unix.gettimeofday () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list (exe :: worker_args ~workload ~seed ~traced ~ops bench)
  in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  (* killed or interrupted, take the worker along *)
  let stop _ =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    exit 2
  in
  let saved =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle stop)))
      [ Sys.sigterm; Sys.sigint; Sys.sighup ]
  in
  Unix.close wr;
  let reaped = ref false in
  let reap () =
    if not !reaped then begin
      reaped := true;
      match Unix.waitpid [] pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
    end
    else Unix.WEXITED 0
  in
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap ())
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then kill ();
      Unix.close rd;
      List.iter (fun (s, b) -> Sys.set_signal s b) saved)
  @@ fun () ->
  let setup_s = ref None and rss = ref 0.0 in
  let done_ = ref [] in
  let current = ref None in
  let values = ref [] and layers = ref [] and digest = ref None in
  let deadline = ref (Unix.gettimeofday () +. Workload.setup_limit) in
  let finish op status secs =
    done_ :=
      { op; status; secs; values = List.rev !values; layers = List.rev !layers;
        digest = !digest }
      :: !done_;
    values := [];
    layers := [];
    digest := None;
    current := None;
    deadline := Unix.gettimeofday () +. Workload.setup_limit
  in
  let op_of s =
    match Workload.op_of_name s with
    | Some op -> op
    | None -> failwith ("worker reported unknown op " ^ s)
  in
  let handle line =
    match words line with
    | [ "setup"; s ] -> setup_s := Some (float_of_string s)
    | [ "begin"; op ] ->
      let op = op_of op in
      current := Some op;
      deadline := Unix.gettimeofday () +. limit op
    | [ "value"; k; v ] -> values := (k, float_of_string v) :: !values
    | [ "layer"; n; w; c; a ] ->
      layers :=
        ( n,
          { wall = float_of_string w; cpu = float_of_string c;
            words = float_of_string a } )
        :: !layers
    | [ "digest"; d ] -> digest := Some d
    | "end" :: op :: st :: secs :: msg ->
      let op = op_of op in
      let msg = String.concat " " msg in
      let status =
        match st with "ok" -> Ok | "check" -> Wrong msg | _ -> Failed msg
      in
      let secs = if status = Ok then float_of_string secs else limit op in
      finish op status secs
    | [ "rss"; mb ] -> rss := float_of_string mb
    | _ -> failwith ("unexpected worker line: " ^ line)
  in
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let flush_lines () =
    let s = Buffer.contents buf in
    match String.rindex_opt s '\n' with
    | None -> ()
    | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      List.iter (fun l -> if l <> "" then handle l)
        (String.split_on_char '\n' (String.sub s 0 i))
  in
  let fail_rest status =
    (match !current with
     | Some op ->
       let secs = limit op in
       finish op status secs
     | None -> ());
    let ran = List.map (fun r -> r.op) !done_ in
    List.iter
      (fun op ->
        if not (List.mem op ran) then
          done_ :=
            { op; status = Not_run; secs = limit op; values = []; layers = [];
              digest = None }
            :: !done_)
      ops
  in
  let rec loop () =
    let wait = !deadline -. Unix.gettimeofday () in
    if wait <= 0.0 then begin
      kill ();
      fail_rest Timed_out
    end
    else
      match Unix.select [ rd ] [] [] wait with
      | [], _, _ -> loop ()
      | _ ->
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n = 0 then begin
          flush_lines ();
          match reap () with
          | Unix.WEXITED 0 when !current = None -> fail_rest Not_run
          | Unix.WEXITED n -> fail_rest (Failed (Printf.sprintf "worker exited %d" n))
          | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            fail_rest (Failed (Printf.sprintf "worker killed by signal %d" n))
        end
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          flush_lines ();
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  let results = List.map (fun op -> List.find (fun r -> r.op = op) !done_) ops in
  { circuit = name; setup_s = !setup_s; ops = results; rss_mb = !rss;
    wall_s = Unix.gettimeofday () -. started }
