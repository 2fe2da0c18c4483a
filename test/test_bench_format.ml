module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Parser = Ppet_netlist.Bench_parser
module Writer = Ppet_netlist.Bench_writer
module Lexer = Ppet_netlist.Bench_lexer
module S27 = Ppet_netlist.S27
module Generator = Ppet_netlist.Generator

let test_lexer_tokens () =
  let l = Lexer.of_string "G1 = AND(G2, G3) # comment\nINPUT(G2)" in
  Alcotest.(check bool) "ident" true (Lexer.next l = Lexer.Ident "G1");
  Alcotest.(check bool) "equal" true (Lexer.next l = Lexer.Equal);
  Alcotest.(check bool) "and" true (Lexer.next l = Lexer.Ident "AND");
  Alcotest.(check bool) "lparen" true (Lexer.next l = Lexer.Lparen);
  Alcotest.(check bool) "g2" true (Lexer.next l = Lexer.Ident "G2");
  Alcotest.(check bool) "comma" true (Lexer.next l = Lexer.Comma);
  Alcotest.(check bool) "g3" true (Lexer.next l = Lexer.Ident "G3");
  Alcotest.(check bool) "rparen" true (Lexer.next l = Lexer.Rparen);
  (* comment swallowed *)
  Alcotest.(check bool) "input" true (Lexer.next l = Lexer.Ident "INPUT")

let test_lexer_peek () =
  let l = Lexer.of_string "abc def" in
  Alcotest.(check bool) "peek" true (Lexer.peek l = Lexer.Ident "abc");
  Alcotest.(check bool) "peek stable" true (Lexer.peek l = Lexer.Ident "abc");
  Alcotest.(check bool) "next" true (Lexer.next l = Lexer.Ident "abc");
  Alcotest.(check bool) "advances" true (Lexer.next l = Lexer.Ident "def");
  Alcotest.(check bool) "eof" true (Lexer.next l = Lexer.Eof)

let test_lexer_illegal_char () =
  let l = Lexer.of_string "a ; b" in
  ignore (Lexer.next l);
  Alcotest.(check bool) "illegal" true
    (try
       ignore (Lexer.next l);
       false
     with Circuit.Error msg -> String.length msg > 0 && String.sub msg 0 8 = "<string>")

let test_parse_s27 () =
  let c = Parser.parse_string ~title:"s27" S27.text in
  Alcotest.(check int) "nodes" 17 (Circuit.size c);
  let g9 = Circuit.node c (Circuit.find c "G9") in
  Alcotest.(check bool) "g9 nand" true (g9.Circuit.kind = Gate.Nand)

let test_parse_case_insensitive_keywords () =
  let c = Parser.parse_string "input(a)\noutput(y)\ny = not(a)" in
  Alcotest.(check int) "nodes" 2 (Circuit.size c)

let test_parse_whitespace_insensitive () =
  let c = Parser.parse_string "INPUT(a) OUTPUT(y) y=NOT( a )" in
  Alcotest.(check int) "nodes" 2 (Circuit.size c)

let test_parse_unknown_gate () =
  Alcotest.(check bool) "unknown gate" true
    (try
       ignore (Parser.parse_string "INPUT(a)\ny = FROB(a)");
       false
     with Circuit.Error msg ->
       (* position + message *)
       String.length msg > 0)

let test_parse_syntax_error_position () =
  Alcotest.(check bool) "line reported" true
    (try
       ignore (Parser.parse_string ~file:"t.bench" "INPUT(a)\ny = AND(a,)\n");
       false
     with Circuit.Error msg ->
       (* the error mentions the file *)
       String.length msg >= 7 && String.sub msg 0 7 = "t.bench")

let test_parse_keyword_named_signals () =
  (* INPUT / OUTPUT are declarations only when followed by '(' — a signal
     literally named "input" or "output" is an ordinary identifier *)
  let c =
    Parser.parse_string
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ninput = AND(a, b)\noutput = NOT(input)\ny = OR(input, output)"
  in
  Alcotest.(check int) "nodes" 5 (Circuit.size c);
  let nd = Circuit.node c (Circuit.find c "input") in
  Alcotest.(check bool) "input is a gate" true (nd.Circuit.kind = Gate.And);
  (* and keyword-prefixed names never were declarations *)
  let c2 = Parser.parse_string "INPUT(a)\nOUTPUT(y)\nINPUT1 = NOT(a)\ny = NOT(INPUT1)" in
  Alcotest.(check int) "prefixed" 3 (Circuit.size c2)

let test_parse_missing_paren () =
  Alcotest.(check bool) "missing paren" true
    (try
       ignore (Parser.parse_string "INPUT a)");
       false
     with Circuit.Error _ -> true)

let test_roundtrip_s27 () =
  let c = S27.circuit () in
  let c2 = Parser.parse_string ~title:"s27" (Writer.to_string c) in
  Alcotest.(check int) "same size" (Circuit.size c) (Circuit.size c2);
  Alcotest.(check (float 1e-9)) "same area" (Circuit.area c) (Circuit.area c2);
  (* same structure signal by signal *)
  Array.iter
    (fun (nd : Circuit.node) ->
      let nd2 = Circuit.node c2 (Circuit.find c2 nd.Circuit.name) in
      Alcotest.(check bool) ("kind of " ^ nd.Circuit.name) true
        (nd.Circuit.kind = nd2.Circuit.kind);
      let names c nd =
        List.map
          (fun f -> (Circuit.node c f).Circuit.name)
          (Array.to_list nd.Circuit.fanins)
      in
      Alcotest.(check (list string)) ("fanins of " ^ nd.Circuit.name)
        (names c nd) (names c2 nd2))
    c.Circuit.nodes

let test_file_io () =
  let path = Filename.temp_file "ppet" ".bench" in
  Writer.to_file path (S27.circuit ());
  let c = Parser.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "parsed back" 17 (Circuit.size c);
  Alcotest.(check bool) "title from filename" true
    (String.length c.Circuit.title > 0)

(* property: writer/parser roundtrip on generated circuits *)
let prop_roundtrip =
  QCheck.Test.make ~name:"write/parse roundtrip on random circuits" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 3)) ~n_pi:4 ~n_dff:5
          ~n_gates:40
      in
      let c2 = Parser.parse_string (Writer.to_string c) in
      Circuit.size c = Circuit.size c2
      && Circuit.area c = Circuit.area c2
      && Array.length c.Circuit.outputs = Array.length c2.Circuit.outputs)

(* ------------------------------------------------------------------ *)
(* BENCH_*.json perf-baseline schema (Report.bench_json) — goldens for
   both shapes: the bare pre-stats schema (circuit_stats = None must
   stay byte-identical, old baselines keep diffing cleanly) and the
   pipeline-sweep schema with per-entry circuit stats. *)

module Report = Ppet_core.Report

let bare_entries =
  [
    { Report.entry_name = "a/flow"; median_ns = 1.5; mad_ns = 0.5; jobs = 1;
      circuit_stats = None; minor_words = None };
    { Report.entry_name = "a/fault_sim"; median_ns = 2.0; mad_ns = 0.0;
      jobs = 4; circuit_stats = None; minor_words = None };
  ]

let stats_entries =
  let stats =
    Some
      { Report.gates = 120; dffs = 17; edges = 256; segments = 0;
        largest_cluster = 0 }
  in
  [
    { Report.entry_name = "s27/flow"; median_ns = 1.5; mad_ns = 0.5; jobs = 1;
      circuit_stats = stats; minor_words = None };
    { Report.entry_name = "s27/retime"; median_ns = 250.0; mad_ns = 10.0;
      jobs = 1; circuit_stats = stats; minor_words = None };
  ]

(* the pipeline sweep's flow/assign rows also carry their minor words *)
let alloc_entries =
  [
    { Report.entry_name = "s27/assign"; median_ns = 8.0; mad_ns = 1.0;
      jobs = 1; circuit_stats = None; minor_words = Some 12345.0 };
  ]

let test_bench_json_schema () =
  let json = Report.bench_json ~name:"pipeline" ~entries:bare_entries in
  Alcotest.(check string) "bare schema is stable"
    "{\n  \"name\": \"pipeline\",\n  \"entries\": [\n    { \"name\": \
     \"a/flow\", \"median_ns\": 1.5, \"mad_ns\": 0.5, \"jobs\": 1 },\n    \
     { \"name\": \"a/fault_sim\", \"median_ns\": 2, \"mad_ns\": 0, \"jobs\": \
     4 }\n  ]\n}\n"
    json

let test_bench_json_schema_stats () =
  let json = Report.bench_json ~name:"pipeline" ~entries:stats_entries in
  Alcotest.(check string) "stats schema is stable"
    "{\n  \"name\": \"pipeline\",\n  \"entries\": [\n    { \"name\": \
     \"s27/flow\", \"median_ns\": 1.5, \"mad_ns\": 0.5, \"jobs\": 1, \
     \"gates\": 120, \"dffs\": 17, \"edges\": 256 },\n    { \"name\": \
     \"s27/retime\", \"median_ns\": 250, \"mad_ns\": 10, \"jobs\": 1, \
     \"gates\": 120, \"dffs\": 17, \"edges\": 256 }\n  ]\n}\n"
    json

let test_bench_json_schema_alloc () =
  let json = Report.bench_json ~name:"pipeline" ~entries:alloc_entries in
  Alcotest.(check string) "alloc schema is stable"
    "{\n  \"name\": \"pipeline\",\n  \"entries\": [\n    { \"name\": \
     \"s27/assign\", \"median_ns\": 8, \"mad_ns\": 1, \"jobs\": 1, \
     \"minor_words\": 12345 }\n  ]\n}\n"
    json

let test_bench_json_read_back () =
  List.iter
    (fun entries ->
      let json = Report.bench_json ~name:"pipeline" ~entries in
      let back = Report.bench_entries_of_json json in
      Alcotest.(check int) "entry count" (List.length entries)
        (List.length back);
      List.iter2
        (fun (a : Report.bench_entry) (b : Report.bench_entry) ->
          Alcotest.(check string) "name" a.Report.entry_name b.Report.entry_name;
          Alcotest.(check (float 1e-9)) "median" a.Report.median_ns
            b.Report.median_ns;
          Alcotest.(check (float 1e-9)) "mad" a.Report.mad_ns b.Report.mad_ns;
          Alcotest.(check int) "jobs" a.Report.jobs b.Report.jobs;
          Alcotest.(check bool) "stats" true
            (a.Report.circuit_stats = b.Report.circuit_stats);
          Alcotest.(check bool) "minor words" true
            (a.Report.minor_words = b.Report.minor_words))
        entries back)
    [ bare_entries; stats_entries; alloc_entries ]

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer peek" `Quick test_lexer_peek;
    Alcotest.test_case "lexer rejects illegal chars" `Quick test_lexer_illegal_char;
    Alcotest.test_case "parse s27" `Quick test_parse_s27;
    Alcotest.test_case "keywords case-insensitive" `Quick test_parse_case_insensitive_keywords;
    Alcotest.test_case "whitespace-insensitive" `Quick test_parse_whitespace_insensitive;
    Alcotest.test_case "unknown gate rejected" `Quick test_parse_unknown_gate;
    Alcotest.test_case "error carries position" `Quick test_parse_syntax_error_position;
    Alcotest.test_case "keyword-named signals parse as gates" `Quick
      test_parse_keyword_named_signals;
    Alcotest.test_case "missing paren rejected" `Quick test_parse_missing_paren;
    Alcotest.test_case "s27 roundtrip" `Quick test_roundtrip_s27;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "BENCH json bare schema" `Quick test_bench_json_schema;
    Alcotest.test_case "BENCH json stats schema" `Quick
      test_bench_json_schema_stats;
    Alcotest.test_case "BENCH json minor-words schema" `Quick
      test_bench_json_schema_alloc;
    Alcotest.test_case "BENCH json read-back" `Quick
      test_bench_json_read_back;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
