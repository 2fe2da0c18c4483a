(* Layer timing from outside the program: each call into a library layer
   goes through [span.run name f]. The untraced span is a plain call; the
   traced one accumulates wall time, process CPU time and allocated words
   per layer name.

   Allocation is the calling domain's minor-heap words from
   [Gc.minor_words], which counts exactly. [Gc.quick_stat]'s counters
   advance only at collections, so their deltas over a call depend on
   where the call started in the minor heap and do not repeat; blocks
   allocated straight into the major heap are left out for the same
   reason. *)

type stat = {
  mutable wall : float;
  mutable cpu : float;
  mutable words : float;
}

type table = (string, stat) Hashtbl.t

type span = { run : 'a. string -> (unit -> 'a) -> 'a }

let off = { run = (fun _ f -> f ()) }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let words_now = Gc.minor_words

let traced (tbl : table) =
  {
    run =
      (fun name f ->
        let w0 = words_now () and c0 = cpu_now () and t0 = Unix.gettimeofday () in
        let x = f () in
        let t1 = Unix.gettimeofday () and c1 = cpu_now () and w1 = words_now () in
        let s =
          match Hashtbl.find_opt tbl name with
          | Some s -> s
          | None ->
            let s = { wall = 0.0; cpu = 0.0; words = 0.0 } in
            Hashtbl.add tbl name s;
            s
        in
        s.wall <- s.wall +. (t1 -. t0);
        s.cpu <- s.cpu +. (c1 -. c0);
        s.words <- s.words +. (w1 -. w0);
        x);
  }

let sorted (tbl : table) =
  List.sort compare (Hashtbl.fold (fun k s acc -> (k, s) :: acc) tbl [])
