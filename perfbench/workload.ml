(* The benchmark's workloads, ops, time limits and inputs. *)

module Benchmarks = Ppet_netlist.Benchmarks
module Generator = Ppet_netlist.Generator
module Params = Ppet_core.Params

type op = Compile | Selftest | Analyze | Verify | Hang

let op_name = function
  | Compile -> "compile"
  | Selftest -> "selftest"
  | Analyze -> "analyze"
  | Verify -> "verify"
  | Hang -> "hang"

let op_of_name = function
  | "compile" -> Some Compile
  | "selftest" -> Some Selftest
  | "analyze" -> Some Analyze
  | "verify" -> Some Verify
  | "hang" -> Some Hang
  | _ -> None

type t = {
  name : string;
  circuits : string list;
  l_k : int;
  max_width : int;
  jobs : int;
  ops : op list;
}

(* Every workload runs selftest and analyze, so that coverage and the
   dataflow layer are measured on each. paper17 has no verify: Seq_check
   alone takes about 49 s over its seventeen profiles. Analyze goes last:
   it is the op that hangs today, and a killed worker takes the ops after
   it along. synth10k is not in BENCHMARK.json (README.md says why). *)
let every = [ Compile; Selftest; Verify; Analyze ]

let all =
  [
    { name = "paper17"; circuits = Benchmarks.names; l_k = 16; max_width = 14;
      jobs = 1; ops = [ Compile; Selftest; Analyze ] };
    { name = "wide-selftest"; circuits = [ "s5378"; "s9234.1" ]; l_k = 20;
      max_width = 20; jobs = 2; ops = every };
    { name = "synth10k"; circuits = [ "synth10k" ]; l_k = 16; max_width = 14;
      jobs = 1; ops = every };
  ]

(* A small workload for the benchmark's own tests: whole-flow coverage in
   about a second. Not listed in BENCHMARK.json. *)
let tiny =
  { name = "tiny"; circuits = [ "s510"; "s641" ]; l_k = 12; max_width = 12;
    jobs = 1; ops = every }

let find name = List.find_opt (fun w -> w.name = name) (tiny :: all)

let params w = Params.with_lk w.l_k

(* Wall-clock limit per op. A whole-circuit dataflow pass finishes in
   milliseconds when it terminates, so its limit only has to absorb a
   loaded machine; the others cover the largest paper profile with
   several times its measured cost to spare. *)
let limit = function
  | Compile | Selftest | Verify -> 120.0
  | Analyze | Hang -> 1.0

let setup_limit = 60.0

(* The inputs of a run. The circuits are the repo's fixed instances of
   each profile (generator seed 0x5EED, what `merced selftest s5378`
   compiles); the benchmark seed renames every signal of their .bench
   text. Node order, and so every result and the work done, stays that of
   the fixed instance: regenerating the structure per seed moved compile_s
   by 16-23% and selftest_s by 60-100% between seeds (README.md). *)
let generate name =
  Generator.generate ~seed:0x5EEDL (Benchmarks.find name).Benchmarks.profile

let fresh_name rng used =
  let alnum = "abcdefghijklmnopqrstuvwxyz0123456789" in
  let rec go () =
    let len = 4 + Ppet_digraph.Prng.int rng 5 in
    let s =
      String.init len (fun i ->
          alnum.[Ppet_digraph.Prng.int rng (if i = 0 then 26 else 36)])
    in
    if Hashtbl.mem used s then go ()
    else begin
      Hashtbl.add used s ();
      s
    end
  in
  go ()

(* Rewrites .bench text in Bench_writer's layout: INPUT(x), OUTPUT(x) and
   x = KIND(a, b, ...) lines, comments kept. *)
let rename ~seed text =
  let rng = Ppet_digraph.Prng.create (Int64.add 0x4E414D45L seed) in
  let table = Hashtbl.create 4096 and used = Hashtbl.create 4096 in
  let name n =
    match Hashtbl.find_opt table n with
    | Some m -> m
    | None ->
      let m = fresh_name rng used in
      Hashtbl.add table n m;
      m
  in
  let inside prefix l =
    String.sub l (String.length prefix) (String.length l - String.length prefix - 1)
  in
  let line l =
    if l = "" || l.[0] = '#' then l
    else if String.starts_with ~prefix:"INPUT(" l then "INPUT(" ^ name (inside "INPUT(" l) ^ ")"
    else if String.starts_with ~prefix:"OUTPUT(" l then
      "OUTPUT(" ^ name (inside "OUTPUT(" l) ^ ")"
    else
      match String.index_opt l '=' , String.index_opt l '(' with
      | Some eq, Some lp ->
        let lhs = String.trim (String.sub l 0 eq) in
        let kind = String.trim (String.sub l (eq + 1) (lp - eq - 1)) in
        let args = String.sub l (lp + 1) (String.length l - lp - 2) in
        Printf.sprintf "%s = %s(%s)" (name lhs) kind
          (String.concat ", "
             (List.map (fun a -> name (String.trim a)) (String.split_on_char ',' args)))
      | _ -> invalid_arg ("Workload.rename: unexpected line " ^ l)
  in
  String.concat "\n" (List.map line (String.split_on_char '\n' text))

let netlist ~seed name =
  rename ~seed (Ppet_netlist.Bench_writer.to_string (generate name))
