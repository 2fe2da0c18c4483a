module Cost_model = Ppet_core.Cost_model
module Campaign = Ppet_core.Campaign
module Params = Ppet_core.Params
module Report = Ppet_core.Report
module Benchmarks = Ppet_netlist.Benchmarks
module Domain_pool = Ppet_parallel.Domain_pool
module Circuit = Ppet_netlist.Circuit

(* ------------------------------------------------------------------ *)
(* fixtures *)

let stats ~gates ~dffs ~edges =
  { Report.gates; dffs; edges; segments = 0; largest_cluster = 0 }

let entry name ~jobs ~median stats =
  {
    Report.entry_name = name;
    median_ns = median;
    mad_ns = 0.0;
    jobs;
    circuit_stats = Some stats;
    minor_words = None;
  }

(* A sweep whose medians are an exact linear function of the stats, over
   enough distinct circuits that the ridge term barely bends the fit. *)
let linear_entries stage f =
  List.map
    (fun (g, d, e) ->
      let s = stats ~gates:g ~dffs:d ~edges:e in
      entry (Printf.sprintf "c%d/%s" g stage) ~jobs:1 ~median:(f s) s)
    [ (10, 3, 16); (100, 20, 150); (500, 64, 700); (2000, 180, 2600);
      (8000, 700, 11000); (20000, 1500, 26000) ]

(* A complete model covering every stage `decide` consults, with costs
   chosen so the intended winners are unambiguous: flow's three stages
   are cheap, the baselines pay their quality factor, the 8-word kernel
   wins, and pooling wins only above ~1000 gates. *)
let full_model () =
  let per_gate rate s = 100.0 +. (rate *. float_of_int s.Report.gates) in
  let entries =
    List.concat
      [
        linear_entries "flow" (per_gate 10.0);
        linear_entries "cluster" (per_gate 5.0);
        linear_entries "assign" (per_gate 5.0);
        linear_entries "partition_fm" (per_gate 30.0);
        linear_entries "partition_annealing" (per_gate 300.0);
        linear_entries "partition_random" (per_gate 1.0);
        linear_entries "fault_sim" (per_gate 50.0);
        linear_entries "fault_sim_w8" (per_gate 8.0);
        linear_entries "fault_sim_w32" (per_gate 12.0);
        (* pooled: a large fixed dispatch cost, a lower slope — crosses
           the serial line near 1200 gates *)
        List.map
          (fun (e : Report.bench_entry) ->
            { e with Report.jobs = 2; median_ns = e.Report.median_ns +. 48_000.0
                     -. (42.0 *. float_of_int
                           (Option.get e.Report.circuit_stats).Report.gates) })
          (linear_entries "fault_sim" (per_gate 50.0));
      ]
  in
  Cost_model.fit ~ridge:1e-9 entries

(* ------------------------------------------------------------------ *)
(* fit *)

let test_fit_recovers_linear () =
  let f s = 1000.0 +. (7.0 *. float_of_int s.Report.gates) in
  let m = Cost_model.fit ~ridge:1e-9 (linear_entries "flow" f) in
  List.iter
    (fun (g, d, e) ->
      let s = stats ~gates:g ~dffs:d ~edges:e in
      match Cost_model.predict m ~stage:"flow" s with
      | None -> Alcotest.fail "stage missing"
      | Some p ->
        Alcotest.(check bool)
          (Printf.sprintf "prediction at %d gates within 1%%" g)
          true
          (Float.abs (p -. f s) /. f s < 0.01))
    [ (10, 3, 16); (2000, 180, 2600); (50000, 4000, 66000) ]

let test_fit_skips_unusable_rows () =
  let s = stats ~gates:10 ~dffs:3 ~edges:16 in
  let usable = entry "a/flow" ~jobs:1 ~median:5000.0 s in
  let zero = entry "b/flow" ~jobs:1 ~median:0.0 s in
  let unstamped =
    { (entry "c/flow" ~jobs:1 ~median:5000.0 s) with Report.circuit_stats = None }
  in
  let no_slash = entry "flow" ~jobs:1 ~median:5000.0 s in
  let m = Cost_model.fit [ usable; zero; unstamped; no_slash ] in
  (match m.Cost_model.stages with
   | [ sm ] ->
     Alcotest.(check string) "one stage" "flow" sm.Cost_model.stage;
     Alcotest.(check int) "one row survived" 1 sm.Cost_model.rows
   | _ -> Alcotest.fail "expected exactly one stage model");
  Alcotest.check_raises "nothing usable"
    (Circuit.Error
       "calibrate: no usable bench entries (every row needs circuit stats \
        and a positive median — re-record with `merced bench`)")
    (fun () -> ignore (Cost_model.fit [ zero; unstamped; no_slash ]))

(* Stage costs are convex in circuit size (FM is quadratic), so an
   unconstrained line through a wide sweep pays for the big end with a
   negative intercept and predicts below zero on small circuits —
   where the clamp would make expensive baselines look free to
   `decide`. The fit must come back all-nonnegative instead. *)
let test_fit_coeffs_nonnegative () =
  let quadratic s =
    let g = float_of_int s.Report.gates in
    100.0 *. g *. g
  in
  let m = Cost_model.fit ~ridge:1e-9 (linear_entries "flow" quadratic) in
  match m.Cost_model.stages with
  | [ sm ] ->
    Array.iteri
      (fun i c ->
        Alcotest.(check bool)
          (Printf.sprintf "coeff %d nonnegative" i)
          true (c >= 0.0))
      sm.Cost_model.coeffs
  | _ -> Alcotest.fail "expected exactly one stage model"

(* `merced bench` stamps rows with the post-compile partition shape for
   the regression guard, but at dispatch time those features are always
   zero — so the fit must project them away, or it trains on features
   `decide` can never supply (the train/serve skew that once made the
   model predict negative FM cost at segments = 0). *)
let test_fit_ignores_stamped_partition_shape () =
  let f s = 1000.0 +. (7.0 *. float_of_int s.Report.gates) in
  let stamp (e : Report.bench_entry) =
    let s = Option.get e.Report.circuit_stats in
    { e with
      Report.circuit_stats =
        Some { s with Report.segments = 9; largest_cluster = 55 } }
  in
  let plain = Cost_model.fit ~ridge:1e-9 (linear_entries "flow" f) in
  let stamped =
    Cost_model.fit ~ridge:1e-9 (List.map stamp (linear_entries "flow" f))
  in
  match (plain.Cost_model.stages, stamped.Cost_model.stages) with
  | [ p ], [ s ] ->
    Alcotest.(check bool) "stamping does not move the fit" true
      (p.Cost_model.coeffs = s.Cost_model.coeffs);
    Alcotest.(check (float 0.0)) "segments coeff pinned to zero" 0.0
      s.Cost_model.coeffs.(4);
    Alcotest.(check (float 0.0)) "largest-cluster coeff pinned to zero" 0.0
      s.Cost_model.coeffs.(5)
  | _ -> Alcotest.fail "expected exactly one stage model each"

let test_pooled_fault_sim_stage_key () =
  let s = stats ~gates:10 ~dffs:3 ~edges:16 in
  Alcotest.(check (option string)) "serial" (Some "fault_sim")
    (Cost_model.stage_key (entry "s27/fault_sim" ~jobs:1 ~median:1.0 s));
  Alcotest.(check (option string)) "pooled" (Some "fault_sim@pooled")
    (Cost_model.stage_key (entry "s27/fault_sim" ~jobs:2 ~median:1.0 s));
  Alcotest.(check (option string)) "no circuit prefix" None
    (Cost_model.stage_key (entry "fault_sim" ~jobs:1 ~median:1.0 s))

(* ------------------------------------------------------------------ *)
(* persistence: the golden schema and every rejection *)

let test_golden_schema () =
  let f s = 1000.0 +. (7.0 *. float_of_int s.Report.gates) in
  let m =
    Cost_model.fit ~ridge:1e-3
      (linear_entries "flow" f @ linear_entries "assign" f)
  in
  let expected =
    "{\n\
    \  \"name\": \"cost-model\",\n\
    \  \"schema_version\": 1,\n\
    \  \"ridge\": 0.001,\n\
    \  \"features\": [\"intercept\", \"gates\", \"dffs\", \"edges\", \
     \"segments\", \"largest_cluster\"],\n\
    \  \"stages\": [\n\
    \    { \"stage\": \"assign\", \"rows\": 6, \"coeffs\": [0, 0, 0, 0, 0, 0] },\n\
    \    { \"stage\": \"flow\", \"rows\": 6, \"coeffs\": [0, 0, 0, 0, 0, 0] }\n\
    \  ]\n\
     }\n"
  in
  Alcotest.(check string) "normalised golden" expected
    (Cost_model.to_json ~normalise:true m)

let test_roundtrip_idempotent () =
  let m = full_model () in
  let text = Cost_model.to_json m in
  match Cost_model.of_json text with
  | Error e -> Alcotest.fail ("own emitter rejected: " ^ e)
  | Ok m' ->
    Alcotest.(check string) "render is a fixed point" text
      (Cost_model.to_json m');
    Alcotest.(check string) "fingerprint stable"
      (Cost_model.fingerprint m) (Cost_model.fingerprint m')

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let reject name text fragment =
  match Cost_model.of_json text with
  | Ok _ -> Alcotest.fail (name ^ ": accepted")
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S mentions %S" name e fragment)
      true (contains e fragment)

let test_of_json_rejections () =
  let good = Cost_model.to_json (full_model ()) in
  reject "garbage" "not json at all" "not a cost-model artefact";
  reject "foreign artefact"
    "{\n  \"name\": \"pipeline\",\n  \"schema_version\": 1\n}\n"
    "not a cost-model artefact";
  reject "wrong version"
    (String.split_on_char '\n' good
     |> List.map (fun line ->
            if contains line "\"schema_version\": 1," then
              "  \"schema_version\": 99,"
            else line)
     |> String.concat "\n")
    "unsupported schema_version 99";
  reject "missing ridge"
    "{\n  \"name\": \"cost-model\",\n  \"schema_version\": 1\n}\n"
    "missing ridge";
  reject "no stages"
    "{\n  \"name\": \"cost-model\",\n  \"schema_version\": 1,\n  \
     \"ridge\": 0.001,\n  \"stages\": [\n  ]\n}\n"
    "no stage models";
  reject "wrong arity"
    "{\n  \"name\": \"cost-model\",\n  \"schema_version\": 1,\n  \
     \"ridge\": 0.001,\n  \"stages\": [\n    { \"stage\": \"flow\", \
     \"rows\": 4, \"coeffs\": [1, 2, 3] }\n  ]\n}\n"
    "3 coefficients, expected 6";
  reject "non-finite coefficient"
    "{\n  \"name\": \"cost-model\",\n  \"schema_version\": 1,\n  \
     \"ridge\": 0.001,\n  \"stages\": [\n    { \"stage\": \"flow\", \
     \"rows\": 4, \"coeffs\": [nan, 2, 3, 4, 5, 6] }\n  ]\n}\n"
    "non-finite coefficient";
  reject "malformed row"
    "{\n  \"name\": \"cost-model\",\n  \"schema_version\": 1,\n  \
     \"ridge\": 0.001,\n  \"stages\": [\n    { \"stage\": \"flow\", \
     \"rows\": four, \"coeffs\": [1, 2, 3, 4, 5, 6] }\n  ]\n}\n"
    "malformed row";
  reject "all-zero model"
    "{\n  \"name\": \"cost-model\",\n  \"schema_version\": 1,\n  \
     \"ridge\": 0.001,\n  \"stages\": [\n    { \"stage\": \"flow\", \
     \"rows\": 4, \"coeffs\": [0, 0, 0, 0, 0, 0] }\n  ]\n}\n"
    "all-zero model"

(* ------------------------------------------------------------------ *)
(* decide *)

let test_decide_full_model () =
  let m = full_model () in
  let small = stats ~gates:10 ~dffs:3 ~edges:16 in
  let large = stats ~gates:20000 ~dffs:1500 ~edges:26000 in
  let ds = Cost_model.decide m ~jobs_available:4 small in
  let dl = Cost_model.decide m ~jobs_available:4 large in
  (* random is 20x cheaper than flow but pays a 64x quality factor, so
     flow wins everywhere in this model *)
  Alcotest.(check bool) "small picks flow" true
    (ds.Cost_model.d_partitioner = Params.Flow);
  Alcotest.(check bool) "large picks flow" true
    (dl.Cost_model.d_partitioner = Params.Flow);
  Alcotest.(check int) "8-word kernel wins small" 8 ds.Cost_model.d_words;
  Alcotest.(check int) "8-word kernel wins large" 8 dl.Cost_model.d_words;
  (* the pooled line crosses the serial one near 1200 gates *)
  Alcotest.(check int) "small stays serial" 1 ds.Cost_model.d_jobs;
  Alcotest.(check int) "large takes the pool" 4 dl.Cost_model.d_jobs;
  Alcotest.(check bool) "small cutover above its size" true
    (ds.Cost_model.d_cutover > 10);
  Alcotest.(check bool) "large cutover below its size" true
    (dl.Cost_model.d_cutover <= 20000 && dl.Cost_model.d_cutover >= 1)

let test_decide_fallbacks () =
  (* a model with only a flow stage: words fall back to 8, the pool is
     never taken, cutover says never *)
  let f s = 1000.0 +. (7.0 *. float_of_int s.Report.gates) in
  let m = Cost_model.fit ~ridge:1e-9 (linear_entries "flow" f) in
  let d = Cost_model.decide m ~jobs_available:8 (stats ~gates:50 ~dffs:5 ~edges:60) in
  Alcotest.(check bool) "partitioner falls back to flow" true
    (d.Cost_model.d_partitioner = Params.Flow);
  Alcotest.(check int) "words fall back to 8" 8 d.Cost_model.d_words;
  Alcotest.(check int) "no pooled stage, no pool" 1 d.Cost_model.d_jobs;
  Alcotest.(check int) "cutover = never" Cost_model.no_cutover
    d.Cost_model.d_cutover

let test_decide_all_seventeen () =
  let m = full_model () in
  List.iter
    (fun name ->
      let c = Benchmarks.circuit name in
      let s = Cost_model.stats_of_circuit c in
      Alcotest.(check bool) (name ^ " stats stamped") true
        (s.Report.gates > 0 && s.Report.edges > 0
         && s.Report.segments = 0 && s.Report.largest_cluster = 0);
      let d = Cost_model.decide m ~jobs_available:4 s in
      Alcotest.(check bool) (name ^ " words valid") true
        (List.mem d.Cost_model.d_words [ 1; 8; 32 ]);
      Alcotest.(check bool) (name ^ " partitioner valid") true
        (List.mem d.Cost_model.d_partitioner Params.partitioners);
      Alcotest.(check bool) (name ^ " jobs valid") true
        (d.Cost_model.d_jobs = 1 || d.Cost_model.d_jobs = 4);
      Alcotest.(check bool) (name ^ " cutover valid") true
        (d.Cost_model.d_cutover >= 1
         && d.Cost_model.d_cutover <= Cost_model.no_cutover))
    Benchmarks.names

(* ------------------------------------------------------------------ *)
(* purity properties *)

(* Random models with integer coefficients: %.9g renders them exactly,
   so a JSON round-trip cannot perturb a near-tie decision. *)
let arbitrary_model =
  QCheck.make
    ~print:(fun m -> Cost_model.to_json m)
    QCheck.Gen.(
      let coeff = map float_of_int (int_range (-500) 500) in
      let stage name =
        map
          (fun cs ->
            { Cost_model.stage = name; rows = 6; coeffs = Array.of_list cs })
          (list_repeat Cost_model.n_features coeff)
      in
      let stages =
        [ "flow"; "cluster"; "assign"; "partition_fm"; "partition_annealing";
          "partition_random"; "fault_sim"; "fault_sim@pooled"; "fault_sim_w8";
          "fault_sim_w32" ]
      in
      map
        (fun ss -> { Cost_model.ridge = 1e-3; stages = ss })
        (flatten_l (List.map stage stages)))

let arbitrary_stats =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "gates=%d dffs=%d edges=%d" s.Report.gates s.Report.dffs
        s.Report.edges)
    QCheck.Gen.(
      map
        (fun (g, (d, e)) -> stats ~gates:g ~dffs:d ~edges:e)
        (pair (int_range 1 100_000) (pair (int_range 0 10_000) (int_range 1 150_000))))

let decision_eq a b =
  a.Cost_model.d_partitioner = b.Cost_model.d_partitioner
  && a.Cost_model.d_jobs = b.Cost_model.d_jobs
  && a.Cost_model.d_words = b.Cost_model.d_words
  && a.Cost_model.d_cutover = b.Cost_model.d_cutover

let prop_decision_jobs_independent =
  QCheck.Test.make
    ~name:"result-bearing knobs never depend on jobs_available" ~count:100
    (QCheck.pair arbitrary_model arbitrary_stats)
    (fun (m, s) ->
      let one = Cost_model.decide m ~jobs_available:1 s in
      let many = Cost_model.decide m ~jobs_available:7 s in
      one.Cost_model.d_partitioner = many.Cost_model.d_partitioner
      && one.Cost_model.d_words = many.Cost_model.d_words
      && one.Cost_model.d_cutover = many.Cost_model.d_cutover
      && one.Cost_model.d_jobs = 1
      && (many.Cost_model.d_jobs = 1 || many.Cost_model.d_jobs = 7))

let prop_decision_survives_roundtrip =
  QCheck.Test.make ~name:"decide is stable across a JSON round-trip"
    ~count:100
    (QCheck.pair arbitrary_model arbitrary_stats)
    (fun (m, s) ->
      match Cost_model.of_json (Cost_model.to_json m) with
      | Error _ -> true (* the all-zero draw is legitimately rejected *)
      | Ok m' ->
        decision_eq
          (Cost_model.decide m ~jobs_available:4 s)
          (Cost_model.decide m' ~jobs_available:4 s))

(* ------------------------------------------------------------------ *)
(* campaign differential: auto vs forced, serial vs pooled *)

let auto_plan m profiles words =
  {
    Campaign.default_plan with
    Campaign.profiles;
    words;
    dispatch = Some m;
  }

let test_campaign_auto_eq_forced () =
  let m = full_model () in
  List.iter
    (fun name ->
      let d =
        Cost_model.decide m ~jobs_available:1
          (Cost_model.stats_of_circuit (Benchmarks.circuit name))
      in
      let auto = Campaign.run (auto_plan m [ name ] d.Cost_model.d_words) in
      let forced =
        Campaign.run
          {
            Campaign.default_plan with
            Campaign.profiles = [ name ];
            words = d.Cost_model.d_words;
            params = Cost_model.apply_decision d Campaign.default_plan.Campaign.params;
          }
      in
      Alcotest.(check string)
        (name ^ ": auto = forced chosen config, byte-identical")
        (Campaign.to_json ~normalise:true forced)
        (Campaign.to_json ~normalise:true auto);
      Alcotest.(check string)
        (name ^ ": human bytes agree")
        (Campaign.human forced) (Campaign.human auto))
    [ "s510"; "s420.1"; "s641" ]

let test_campaign_auto_serial_eq_pooled () =
  let m = full_model () in
  let p = auto_plan m [ "s510"; "s420.1" ] 8 in
  let serial = Campaign.run p in
  let pooled = Domain_pool.with_pool ~jobs:2 (fun pool -> Campaign.run ~pool p) in
  Alcotest.(check string) "auto campaign bytes independent of --jobs"
    (Campaign.to_json ~normalise:true serial)
    (Campaign.to_json ~normalise:true pooled);
  Alcotest.(check string) "human bytes too"
    (Campaign.human serial) (Campaign.human pooled)

let suite =
  [
    Alcotest.test_case "fit recovers a linear law" `Quick
      test_fit_recovers_linear;
    Alcotest.test_case "fit skips unusable rows" `Quick
      test_fit_skips_unusable_rows;
    Alcotest.test_case "fit coefficients are nonnegative" `Quick
      test_fit_coeffs_nonnegative;
    Alcotest.test_case "fit ignores stamped partition shape" `Quick
      test_fit_ignores_stamped_partition_shape;
    Alcotest.test_case "pooled fault_sim stage key" `Quick
      test_pooled_fault_sim_stage_key;
    Alcotest.test_case "COST_MODEL.json golden schema" `Quick
      test_golden_schema;
    Alcotest.test_case "reader of own emitter is idempotent" `Quick
      test_roundtrip_idempotent;
    Alcotest.test_case "of_json rejections" `Quick test_of_json_rejections;
    Alcotest.test_case "decide on a full model" `Quick test_decide_full_model;
    Alcotest.test_case "decide fallbacks" `Quick test_decide_fallbacks;
    Alcotest.test_case "decide across all seventeen profiles" `Quick
      test_decide_all_seventeen;
    QCheck_alcotest.to_alcotest prop_decision_jobs_independent;
    QCheck_alcotest.to_alcotest prop_decision_survives_roundtrip;
    Alcotest.test_case "campaign: auto = forced chosen config" `Slow
      test_campaign_auto_eq_forced;
    Alcotest.test_case "campaign: auto bytes independent of pool" `Slow
      test_campaign_auto_serial_eq_pooled;
  ]
