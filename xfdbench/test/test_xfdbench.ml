(* Tests of the benchmark itself: statistics, seeded draws, the
   spread-aware comparison, and a smoke run of every workload at a tiny
   length.  No test asserts on a timing value. *)

open Xfdbench
module Json = Xfd_util.Json

let floats = Alcotest.(list (float 1e-9))

(* ---- statistics ---- *)

let tail_choice () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let pct, v = Stats.tail (xs 40) in
  Alcotest.(check (float 1e-9)) "n=40 gives p75" 75.0 pct;
  Alcotest.(check (float 1e-9)) "p75 of 1..40 has ten samples beyond it" 30.0 v;
  List.iter
    (fun n ->
      let pct, v = Stats.tail (List.rev (xs n)) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "n=%d gives the max" n) (float_of_int n) v;
      Alcotest.(check (float 1e-9)) "at p100" 100.0 pct)
    [ 1; 5; 10 ]

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let quartiles_like_python () =
  let q xs = let a, b = Stats.quartiles xs in [ a; b ] in
  Alcotest.check floats "1..10" [ 2.75; 8.25 ] (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "two samples" [ 0.75; 2.25 ] (q [ 2.0; 1.0 ]);
  Alcotest.check floats "one sample" [ 7.0; 7.0 ] (q [ 7.0 ]);
  Alcotest.(check (float 1e-9)) "median of four" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* Half the samples at speed 1, half at speed 1/3: the work of the window
   took as long as at a steady slowdown of 1.5. *)
let window_slowdown () =
  Alcotest.(check (float 1e-9)) "harmonic mean" 1.5 (Host.window_slowdown [ 1.0; 3.0; 3.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "no samples: nominal" 1.0 (Host.window_slowdown [])

(* ---- seeded draws ---- *)

let draws_deterministic () =
  List.iter
    (fun (w : Workload.t) ->
      let labels s = Workload.labels (w.Workload.draw s) in
      Alcotest.(check (list string)) (w.Workload.name ^ ": same seed, same inputs") (labels 3) (labels 3);
      (* the serve job mix is fixed; its seed draws the traffic *)
      match w.Workload.draw 3 with
      | Workload.Serve _ -> ()
      | _ ->
        Alcotest.(check bool) (w.Workload.name ^ ": another seed, other inputs") true
          (labels 3 <> labels 4))
    Workload.all;
  let sched s = Draw.schedule s ~rate:20.0 ~seconds:10.0 in
  Alcotest.(check bool) "schedule is a function of the seed" true (sched 5 = sched 5);
  Alcotest.(check bool) "another seed, other traffic" true (sched 5 <> sched 6);
  Alcotest.(check int) "rate x seconds arrivals" 200 (List.length (sched 5));
  let offsets = List.map fst (sched 5) in
  Alcotest.(check bool) "arrivals sorted inside the window" true
    (List.sort Float.compare offsets = offsets && List.for_all (fun o -> o >= 0.0 && o < 10.0) offsets)

let antithetic_sizes () =
  let rec pairs = function
    | (a : Draw.prog) :: b :: rest -> (a, b) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun seed ->
      List.iter
        (fun ((a : Draw.prog), (b : Draw.prog)) ->
          Alcotest.(check string) "a pair is one kind" a.Draw.workload b.Draw.workload;
          Alcotest.(check int) "test sizes sum to lo + hi" 16 (a.Draw.test + b.Draw.test);
          Alcotest.(check int) "init sizes sum to lo + hi" 12 (a.Draw.init + b.Draw.init))
        (pairs (Draw.detect_tx seed)))
    [ 1; 2; 3 ]

(* ---- comparison ---- *)

let thr = { Results.name = "throughput_per_s"; unit = "1/s"; lower_is_better = false; bound = 0.1 }
let lat = { Results.name = "latency_p50_ms"; unit = "ms"; lower_is_better = true; bound = 0.15 }
let base = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ]
let wide = [ 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. ]
let scale k = List.map (fun x -> k *. x)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Results.verdict_to_string v))
    ( = )

let judge_verdicts () =
  let check msg m ~base ~next want =
    Alcotest.check verdict msg want (Results.judge m ~base ~next)
  in
  check "same runs" thr ~base ~next:base Results.Unchanged;
  check "20% more throughput in every pair" thr ~base ~next:(scale 1.2 base) Results.Improved;
  check "15% less throughput" thr ~base ~next:(scale 0.85 base) Results.Regressed;
  check "5% less throughput is inside the bound" thr ~base ~next:(scale 0.95 base)
    Results.Unchanged;
  check "20% more latency" lat ~base ~next:(scale 1.2 base) Results.Regressed;
  check "10% less latency" lat ~base ~next:(scale 0.9 base) Results.Improved;
  check "spread wider than the bound" thr ~base:wide ~next:(List.rev wide) Results.Unresolved;
  check "wide, but every new run wins" thr ~base:wide ~next:(scale 2.0 base) Results.Improved;
  check "any rise of the failure share" Results.failed_frac ~base:[ 0.; 0. ] ~next:[ 0.; 0.01 ]
    Results.Regressed;
  check "no failures either side" Results.failed_frac ~base:[ 0.; 0. ] ~next:[ 0.; 0. ]
    Results.Unchanged

let results_file values =
  Results.results_json ~seed:1 ~seconds:1.0 ~traced:false
    [
      Json.Obj
        [
          ("workload", Json.Str "w");
          ( "metrics",
            Json.Obj (List.map (fun (m, v) -> (m, Json.Obj [ ("median", Json.Float v) ])) values) );
        ];
    ]

let compare_sets () =
  let bench =
    { Results.run_seconds = 1; workloads = [ "w" ]; end_to_end = [ thr; lat ]; per_layer = [] }
  in
  let run t l f =
    results_file [ ("throughput_per_s", t); ("latency_p50_ms", l); ("failed_ops_frac", f) ]
  in
  let base_files = List.map (fun x -> run x x 0.0) base in
  let verdicts next =
    match Results.compare_sets bench ~base:base_files ~next with
    | Ok rows -> List.map (fun r -> (r.Results.metric.Results.name, r.Results.verdict)) rows
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (pair string verdict)))
    "faster and no new failures"
    [
      ("throughput_per_s", Results.Improved);
      ("latency_p50_ms", Results.Improved);
      ("failed_ops_frac", Results.Unchanged);
    ]
    (verdicts (List.map (fun x -> run (1.3 *. x) (0.7 *. x) 0.0) base));
  Alcotest.(check (pair string verdict))
    "one failed verdict" ("failed_ops_frac", Results.Regressed)
    (List.nth (verdicts (List.mapi (fun i x -> run x x (if i = 0 then 0.01 else 0.0)) base)) 2);
  match
    Results.compare_sets bench ~base:base_files ~next:[ results_file [ ("throughput_per_s", 1.0) ] ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a results file without every metric is bad input"

(* The overhead comes from two full runs: the traced median latency over
   the untraced one. *)
let trace_overhead () =
  let detail p50 layers =
    Json.Obj
      [
        ("workload", Json.Str "w");
        ("metrics", Json.Obj [ ("latency_p50_ms", Json.Obj [ ("median", Json.Float p50) ]) ]);
        ("layers", Json.Obj layers);
      ]
  in
  let layer = ("engine.self_s", Results.value_json 0.5 "s") in
  let got = Results.with_trace_overhead ~untraced:(detail 40.0 []) (detail 50.0 [ layer ]) in
  let overhead =
    Option.bind (Json.member "layers" got) (Json.member "trace_overhead_frac")
    |> Fun.flip Option.bind (Results.num "value")
  in
  Alcotest.(check (option (float 1e-9))) "50 ms traced over 40 ms untraced" (Some 0.25) overhead;
  Alcotest.(check bool) "other layer metrics kept" true
    (Option.bind (Json.member "layers" got) (Json.member "engine.self_s") <> None)

(* ---- smoke runs ---- *)

let bench =
  lazy
    (match Results.load_benchmark "../../BENCHMARK.json" with
    | Ok b -> b
    | Error e -> failwith e)

let golden =
  lazy
    (match Golden.load ~dir:"../golden" ~seed:1 with
    | Ok (Some g) -> g
    | Ok None -> failwith "no committed golden for seed 1"
    | Error e -> failwith e)

(* Per-layer metrics every traced run reports, whichever layers it
   reaches. *)
let layer_names =
  [
    "engine.pre_exec_s"; "engine.post_exec_s"; "engine.post_exec_self_s"; "engine.snapshot_s";
    "pm.snapshot_bytes"; "pm.cow_faults"; "pm.chunk_bytes_peak"; "engine.pre_replay_s";
    "engine.post_replay_s"; "engine.pre_replay_events"; "detector.checked_bytes";
    "detector.post_replay_ns_per_event"; "shadow.divergence_rewinds"; "shadow.page_bytes_peak";
    "engine.self_s"; "engine.failure_points"; "trace.pre_events"; "trace.post_events";
    "gc.minor_words_per_fp"; "lint.trace_s"; "lint.analyse_s.adr"; "lint.analyse_s.eadr";
    "lint.analyse_s.cxl-gpf"; "lint.events"; "lint.findings.adr"; "lint.findings.eadr";
    "lint.findings.cxl-gpf"; "fuzz.detect_s"; "fuzz.self_s"; "fuzz.detects_per_program";
    "fuzz.ms_per_detect"; "fuzz.divergences"; "fuzz.meta_failures"; "serve.post_rtt_ms.p50";
    "serve.accept_delay_ms.p50"; "serve.queue_wait_ms.p50"; "serve.run_ms.p50";
    "serve.detect_ms.p50"; "serve.job_overhead_ms.p50"; "serve.rejected";
    "serve.gen_late_ms.max"; "op_tail_ms";
  ]

let smoke (w : Workload.t) ~traced () =
  let bench = Lazy.force bench in
  let expected = List.assoc w.Workload.pool (Lazy.force golden) in
  let seconds = match w.Workload.draw 1 with Workload.Serve _ -> 0.3 | _ -> 0.01 in
  let r =
    Workload.run
      {
        Workload.seed = 1;
        seconds;
        traced;
        cli = "../../bin/xfd_cli.exe";
        probe = "../core_probe.exe";
        perfetto = None;
      }
      w expected
  in
  Alcotest.(check bool) "attempted something" true (r.Workload.attempted > 0);
  Alcotest.(check int) "every verdict matches its golden" 0 r.Workload.failed;
  List.iter
    (fun (name, _, xs) ->
      if name = "failed_ops_frac" then Alcotest.check floats "failed_ops_frac = 0" [ 0.0 ] xs)
    (Results.samples r);
  let named =
    if traced then bench.Results.per_layer
    else List.map (fun m -> (m.Results.name, m.Results.unit)) bench.Results.end_to_end
  in
  (match Results.contract_json bench r with
  | Error m -> Alcotest.failf "metric %s missing" m
  | Ok j ->
    let got =
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
        List.map (fun (n, v) -> (n, Option.value ~default:"?" (Results.str "unit" v))) ms
      | _ -> []
    in
    Alcotest.(check (list (pair string string))) "every named metric and its unit, in order" named got;
    Alcotest.(check bool) "correct" true (Json.member "correct" j = Some (Json.Bool true)));
  if traced then
    List.iter
      (fun n ->
        Alcotest.(check bool) (n ^ " reported") true
          (List.exists (fun (m, _, _) -> m = n) r.Workload.layers))
      layer_names

let () =
  Alcotest.run "xfdbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile choice" `Quick tail_choice;
          Alcotest.test_case "quartiles as Python computes them" `Quick quartiles_like_python;
          Alcotest.test_case "a window's slowdown" `Quick window_slowdown;
        ] );
      ( "draw",
        [
          Alcotest.test_case "seeded draws are deterministic" `Quick draws_deterministic;
          Alcotest.test_case "antithetic sizes keep total work" `Quick antithetic_sizes;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts on synthetic runs" `Quick judge_verdicts;
          Alcotest.test_case "results files, failures and bad input" `Quick compare_sets;
          Alcotest.test_case "tracing overhead from two runs" `Quick trace_overhead;
        ] );
      ( "smoke",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.Workload.name ^ " untraced") `Quick (smoke w ~traced:false);
              Alcotest.test_case (w.Workload.name ^ " traced") `Quick (smoke w ~traced:true);
            ])
          Workload.all );
    ]
