(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) plus the design ablation, then runs bechamel
   microbenchmarks of the detector's hot paths (experiment E8).

   Usage: main.exe [fig12a|fig12b|fig13|table4|table5|newbugs|capability|
                    ablation|mechanisms|mtsweep|parallel|snapshots|detect|
                    micro|all]                 (default: all, fast sizes)
          main.exe --full        (paper-scale figure 13 sweep: 1..50 txns)
          main.exe EXPERIMENT --metrics-out telemetry.jsonl
                                 (stream spans + a summary record as JSONL)
          main.exe EXPERIMENT --trace-out trace.json
                                 (Chrome trace-event export of all spans;
                                  open in ui.perfetto.dev)

   "snapshots" and "detect" additionally write BENCH_snapshots.json /
   BENCH_detect.json; bench_diff.exe compares them against the committed
   baselines.

   --pulse-port PORT [--pulse-interval S] serves the live pulse endpoint
   (/metrics, /health, /series, ...) for the duration of the run, with a
   background sampler feeding the time-series window — long sweeps like
   "all --full" can be watched with `xfd_cli top --connect`. *)

module E = Xfd_experiments

let run_fig12 () =
  let rows = E.Fig12.run ~init:0 ~test:1 () in
  E.Fig12.print_a rows;
  E.Fig12.print_b rows

let run_fig13 ~full () =
  let sizes = if full then E.Fig13.default_sizes else [ 1; 5; 10; 15; 20 ] in
  E.Fig13.print (E.Fig13.run ~sizes ())

let run_table4 () = E.Table4_exp.print (E.Table4_exp.run ())

let run_table5 () =
  let rows = E.Table5_exp.run () in
  E.Table5_exp.print rows;
  Printf.printf "all injected bugs detected: %b\n" (E.Table5_exp.all_detected rows)

let run_newbugs () =
  let findings = E.Newbugs_exp.run () in
  E.Newbugs_exp.print findings;
  Printf.printf "\nall four bugs reproduced with clean controls: %b\n"
    (E.Newbugs_exp.all_found findings)

let run_capability () = E.Capability.print (E.Capability.run ())
let run_ablation () = E.Ablation.print (E.Ablation.run ())

let run_parallel () = E.Parallel_exp.print (E.Parallel_exp.run ())
let run_mtsweep () = E.Mt_sweep.print (E.Mt_sweep.run ())

let run_mechanisms () =
  let rows = E.Mechanisms_exp.run () in
  E.Mechanisms_exp.print rows;
  Printf.printf "all mechanism verdicts as expected: %b\n" (E.Mechanisms_exp.all_ok rows)

(* ---- deep-copy vs CoW snapshotting (the O(delta) representation) ----

   Replicates the engine's snapshot pattern at growing image sizes: F
   failure points, each preceded by a small persisted delta, every snapshot
   held until the end (the legacy lifetime).  The deep baseline copies both
   images eagerly per point — O(F x image) time and peak memory; CoW shares
   chunks and copies only the cache-state delta, so both columns should
   stay flat as the image grows.  Results go to BENCH_snapshots.json so
   later changes have a perf trajectory to compare against. *)

let snapshot_bench_out = "BENCH_snapshots.json"

let run_snapshot_bench () =
  let module Device = Xfd_mem.Pm_device in
  let module Image = Xfd_mem.Image in
  let base = Xfd_mem.Addr.pool_base in
  let points = 32 in
  let counter name = Option.value ~default:0 (Xfd_obs.Obs.counter_value name) in
  let measure ~chunks ~snapf =
    let dev = Device.create () in
    for i = 0 to chunks - 1 do
      Device.store_i64 dev (base + (i * Image.chunk_size)) (Int64.of_int i);
      Device.clwb dev (base + (i * Image.chunk_size))
    done;
    Device.sfence dev;
    Image.reset_peak ();
    let live0 = Image.live_bytes () in
    let copied0 = counter "pm.snapshot_bytes" in
    let t0 = Unix.gettimeofday () in
    let snaps = ref [] in
    for p = 0 to points - 1 do
      (* the delta an ordering point typically leaves: one persisted line *)
      Device.store_i64 dev (base + (p * 64)) (Int64.of_int (p + 1));
      Device.clwb dev (base + (p * 64));
      Device.sfence dev;
      snaps := snapf dev :: !snaps
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let peak = Image.peak_bytes () - live0 in
    let copied = counter "pm.snapshot_bytes" - copied0 in
    List.iter Device.release !snaps;
    Device.release dev;
    (wall, peak, copied)
  in
  let sizes = [ 16; 64; 256; 1024 ] in
  Printf.printf "\n== Snapshotting: deep-copy baseline vs CoW (%d failure points) ==\n" points;
  Printf.printf "%-12s %28s   %28s\n" "" "deep copy" "copy-on-write";
  Printf.printf "%-12s %9s %9s %8s   %9s %9s %8s\n" "image" "wall" "peak" "copied" "wall"
    "peak" "copied";
  let rows =
    List.map
      (fun chunks ->
        let dw, dp, dc = measure ~chunks ~snapf:Device.deep_snapshot in
        let cw, cp, cc = measure ~chunks ~snapf:Device.snapshot in
        let kib b = Printf.sprintf "%dK" (b / 1024) in
        Printf.printf "%-12s %8.2fms %9s %8s   %8.2fms %9s %8s\n"
          (kib (chunks * Image.chunk_size))
          (1000.0 *. dw) (kib dp) (kib dc) (1000.0 *. cw) (kib cp) (kib cc);
        let open Xfd_util.Json in
        Obj
          [
            ("image_bytes", Int (chunks * Image.chunk_size));
            ( "deep",
              Obj [ ("wall_s", Float dw); ("peak_bytes", Int dp); ("snapshot_bytes", Int dc) ]
            );
            ( "cow",
              Obj [ ("wall_s", Float cw); ("peak_bytes", Int cp); ("snapshot_bytes", Int cc) ]
            );
          ])
      sizes
  in
  let json =
    Xfd_util.Json.Obj
      [
        ("type", Xfd_util.Json.Str "BENCH_snapshots");
        ("schema_version", Xfd_util.Json.Int 1);
        ("failure_points", Xfd_util.Json.Int points);
        ("rows", Xfd_util.Json.Arr rows);
      ]
  in
  let oc = open_out snapshot_bench_out in
  output_string oc (Xfd_util.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(written to %s)\n" snapshot_bench_out

(* ---- end-to-end detection perf snapshot: incremental vs fresh ----

   Runs the full pipeline over the table-5 microbenchmark workloads at a
   small fixed size plus one Fig. 12-style multi-failure-point row, once
   per engine (the incremental prefix-sharing scheduler and the
   fresh-replay oracle), and writes BENCH_detect.json: the behavioral
   fingerprint (failure points, event counts, unique bugs, pre-failure
   events replayed — all deterministic) and the perf trajectory per
   engine (wall, peak image bytes, points/s).  The engines must agree on
   the fingerprint; the bench aborts if they diverge, so the baseline
   doubles as an equivalence check.  bench_diff.exe compares two such
   files with per-class tolerances; CI additionally gates the
   incremental/fresh wall-clock speedup and replay fraction computed
   from the engine sub-objects — both engines run on the same host, so
   those ratios are machine-independent.

   "detect --engine incremental|fresh" measures one engine only (table
   output, no JSON: the baseline schema wants both sub-objects). *)

let detect_bench_out = "BENCH_detect.json"

let detect_workloads () =
  List.map (fun (e : E.Workload_set.entry) -> (e.name, e, 2, 3)) E.Workload_set.micro
  @ [
      (* Fig. 12-style row: a long pre-failure trace with many failure
         points, where O(F x prefix) fresh replay dominates and prefix
         sharing pays off.  CI's speedup gate reads this row. *)
      ("Hashmap-Atomic-fig12", E.Workload_set.find "Hashmap-Atomic", 4, 16);
    ]

let engine_name = function `Incremental -> "incremental" | `Fresh -> "fresh"

(* ---- static lint throughput, per persistence-domain model ----

   One row per workload x domain model: trace the workload once per
   model (Lint.check_prog) and report analysed events, findings by
   severity and events/s.  The finding counts are deterministic and
   Exact-gated by bench_diff; wall and rate carry the report-only
   "_s"/"_per_sec" suffix classes. *)

let lint_bench_rows () =
  let open Xfd_util.Json in
  let models = Xfd_trace.Domain_model.all in
  Printf.printf "\n== Static lint throughput per persistence-domain model ==\n";
  Printf.printf "%-18s %-8s %8s %6s %5s %5s %5s %9s %12s\n" "workload" "domain" "events"
    "finds" "err" "warn" "perf" "wall" "events/s";
  List.concat_map
    (fun (name, (e : E.Workload_set.entry), init, test) ->
      let program = e.make ~init ~test in
      List.map
        (fun domain ->
          let config = { Xfd.Config.default with Xfd.Config.domain } in
          ignore (Xfd_lint.Lint.check_prog ~config program);
          (* measured run *)
          let t0 = Unix.gettimeofday () in
          let r = Xfd_lint.Lint.check_prog ~config program in
          let wall = Unix.gettimeofday () -. t0 in
          let eps = if wall > 0.0 then float_of_int r.Xfd_lint.Lint.events /. wall else 0.0 in
          Printf.printf "%-18s %-8s %8d %6d %5d %5d %5d %7.2fms %12.0f\n" name
            (Xfd_trace.Domain_model.to_string domain)
            r.Xfd_lint.Lint.events
            (List.length r.Xfd_lint.Lint.findings)
            r.Xfd_lint.Lint.errors r.Xfd_lint.Lint.warnings r.Xfd_lint.Lint.perf
            (1000.0 *. wall) eps;
          Obj
            [
              ("workload", Str name);
              ("domain", Str (Xfd_trace.Domain_model.to_string domain));
              ("events", Int r.Xfd_lint.Lint.events);
              ("findings", Int (List.length r.Xfd_lint.Lint.findings));
              ("errors", Int r.Xfd_lint.Lint.errors);
              ("warnings", Int r.Xfd_lint.Lint.warnings);
              ("perf", Int r.Xfd_lint.Lint.perf);
              ("wall_s", Float wall);
              ("events_per_sec", Float eps);
            ])
        models)
    (detect_workloads ())

let run_lint_bench () = ignore (lint_bench_rows ())

let run_detect_bench ?engine_filter () =
  let open Xfd_util.Json in
  let counter name = Option.value ~default:0 (Xfd_obs.Obs.counter_value name) in
  let engines =
    match engine_filter with Some e -> [ e ] | None -> [ `Incremental; `Fresh ]
  in
  let measure engine program =
    let config = { Xfd.Config.default with Xfd.Config.engine } in
    ignore (Xfd.Engine.detect ~config program);
    (* measured run *)
    Xfd_mem.Image.reset_peak ();
    let replayed0 = counter "engine.pre_replay_events" in
    let t0 = Unix.gettimeofday () in
    let outcome = Xfd.Engine.detect ~config program in
    let wall = Unix.gettimeofday () -. t0 in
    let replayed = counter "engine.pre_replay_events" - replayed0 in
    let peak =
      match Xfd_obs.Obs.gauge_value "engine.peak_image_bytes" with
      | Some v -> int_of_float v
      | None -> 0
    in
    (outcome, wall, peak, replayed)
  in
  let fingerprint (o : Xfd.Engine.outcome) =
    ( o.failure_points,
      o.pre_events,
      o.post_events,
      List.sort compare (List.map Xfd.Report.dedup_key o.unique_bugs) )
  in
  Printf.printf "\n== End-to-end detection: incremental vs fresh-replay engine ==\n";
  Printf.printf "%-18s %-11s %7s %7s %8s %5s %9s %10s %9s %11s %8s\n" "workload" "engine"
    "points" "pre_ev" "post_ev" "bugs" "replayed" "peak" "wall" "points/s" "speedup";
  let rows =
    List.map
      (fun (name, (e : E.Workload_set.entry), init, test) ->
        let program = e.make ~init ~test in
        let runs = List.map (fun eng -> (eng, measure eng program)) engines in
        (match runs with
        | (_, (a, _, _, _)) :: rest ->
          List.iter
            (fun (eng, ((b : Xfd.Engine.outcome), _, _, _)) ->
              if fingerprint a <> fingerprint b then begin
                Printf.eprintf
                  "bench: engine verdicts diverge on %s (%s vs %s) — refusing to write a \
                   baseline\n"
                  name
                  (engine_name (fst (List.hd runs)))
                  (engine_name eng);
                exit 1
              end)
            rest
        | [] -> ());
        let fresh_wall =
          List.assoc_opt `Fresh runs |> Option.map (fun (_, w, _, _) -> w)
        in
        List.iter
          (fun (eng, ((o : Xfd.Engine.outcome), wall, peak, replayed)) ->
            let pps = if wall > 0.0 then float_of_int o.failure_points /. wall else 0.0 in
            let speedup =
              match (eng, fresh_wall) with
              | `Incremental, Some fw when wall > 0.0 ->
                Printf.sprintf "%6.1fx" (fw /. wall)
              | _ -> ""
            in
            Printf.printf "%-18s %-11s %7d %7d %8d %5d %9d %9dK %7.2fms %11.0f %8s\n" name
              (engine_name eng) o.failure_points o.pre_events o.post_events
              (List.length o.unique_bugs) replayed (peak / 1024) (1000.0 *. wall) pps
              speedup)
          runs;
        let engine_obj (_, wall, peak, replayed) pps =
          Obj
            [
              ("pre_replay_events", Int replayed);
              ("peak_image_bytes", Int peak);
              ("wall_s", Float wall);
              ("points_per_sec", Float pps);
            ]
        in
        let (o : Xfd.Engine.outcome), _, _, _ = snd (List.hd runs) in
        Obj
          ([
             ("workload", Str name);
             ("init_size", Int init);
             ("test_size", Int test);
             ("failure_points", Int o.failure_points);
             ("pre_events", Int o.pre_events);
             ("post_events", Int o.post_events);
             ("unique_bugs", Int (List.length o.unique_bugs));
           ]
          @ List.map
              (fun (eng, ((o : Xfd.Engine.outcome), wall, _, _ as m)) ->
                let pps =
                  if wall > 0.0 then float_of_int o.failure_points /. wall else 0.0
                in
                (engine_name eng, engine_obj m pps))
              runs))
      (detect_workloads ())
  in
  match engine_filter with
  | Some e ->
    Printf.printf "(single-engine run: %s; baseline %s not written)\n" (engine_name e)
      detect_bench_out
  | None ->
    let json =
      Obj
        [
          ("type", Str "BENCH_detect");
          ("schema_version", Int 3);
          ("rows", Arr rows);
          ("lint", Arr (lint_bench_rows ()));
        ]
    in
    let oc = open_out detect_bench_out in
    output_string oc (Xfd_util.Json.to_string_pretty json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "(written to %s)\n" detect_bench_out

(* ---- bechamel microbenchmarks of the hot paths ---- *)

let microbenches () =
  let open Bechamel in
  let l = Xfd_util.Loc.unknown in
  let base = Xfd_mem.Addr.pool_base in
  (* Pre-built inputs so the benchmarks measure only the operation. *)
  let mk_trace n =
    let t = Xfd_trace.Trace.create () in
    ignore (Xfd_trace.Trace.append t ~kind:Xfd_trace.Event.Roi_begin ~loc:l);
    for i = 0 to n - 1 do
      let addr = base + (64 * (i mod 64)) in
      ignore (Xfd_trace.Trace.append t ~kind:(Xfd_trace.Event.Write { addr; size = 8 }) ~loc:l);
      ignore (Xfd_trace.Trace.append t ~kind:(Xfd_trace.Event.Clwb { addr }) ~loc:l);
      ignore (Xfd_trace.Trace.append t ~kind:Xfd_trace.Event.Sfence ~loc:l)
    done;
    t
  in
  let replay_trace = mk_trace 1000 in
  (* A warm detector whose registry holds an undo log's worth of commit
     state: 16 entries, each a valid flag governing 504 bytes, as [Tx]
     registers them.  Forked repeatedly, as the engine forks its base. *)
  let warm =
    let t = mk_trace 1000 in
    let log = base + 65536 in
    for i = 0 to 15 do
      let var = log + (512 * i) in
      List.iter
        (fun kind -> ignore (Xfd_trace.Trace.append t ~kind ~loc:l))
        Xfd_trace.Event.
          [
            Commit_var { addr = var; size = 8 };
            Commit_range { var; addr = var + 8; size = 504 };
            Write { addr = var; size = 8 };
          ]
    done;
    let det = Xfd.Detector.create () in
    Xfd.Detector.replay det t ~from:0 ~upto:(Xfd_trace.Trace.length t);
    det
  in
  let snapshot_dev =
    let d = Xfd_mem.Pm_device.create () in
    for i = 0 to 1023 do
      Xfd_mem.Pm_device.store_i64 d (base + (8 * i)) (Int64.of_int i)
    done;
    d
  in
  let tests =
    [
      Test.make ~name:"device: 100 x store+clwb, 1 sfence"
        (Staged.stage (fun () ->
             let d = Xfd_mem.Pm_device.create () in
             for i = 0 to 99 do
               Xfd_mem.Pm_device.store_i64 d (base + (64 * i)) 1L;
               Xfd_mem.Pm_device.clwb d (base + (64 * i))
             done;
             Xfd_mem.Pm_device.sfence d));
      Test.make ~name:"frontend: 100 instrumented persist_barriers"
        (Staged.stage (fun () ->
             let d = Xfd_mem.Pm_device.create () in
             let tr = Xfd_trace.Trace.create () in
             let ctx = Xfd_sim.Ctx.create ~stage:Xfd_sim.Ctx.Pre_failure ~dev:d ~trace:tr () in
             for i = 0 to 99 do
               Xfd_sim.Ctx.write_i64 ctx ~loc:l (base + (64 * i)) 1L;
               Xfd_sim.Ctx.persist_barrier ctx ~loc:l (base + (64 * i)) 8
             done));
      Test.make ~name:"backend: replay 3000-event trace"
        (Staged.stage (fun () ->
             let det = Xfd.Detector.create () in
             Xfd.Detector.replay det replay_trace ~from:0
               ~upto:(Xfd_trace.Trace.length replay_trace)));
      Test.make ~name:"backend: fork_for_post of a warm shadow"
        (Staged.stage (fun () -> ignore (Xfd.Detector.fork_for_post warm)));
      Test.make ~name:"frontend: CoW device snapshot (8 KiB touched)"
        (Staged.stage (fun () ->
             Xfd_mem.Pm_device.release (Xfd_mem.Pm_device.snapshot snapshot_dev)));
      Test.make ~name:"frontend: deep device snapshot (8 KiB touched)"
        (Staged.stage (fun () ->
             Xfd_mem.Pm_device.release (Xfd_mem.Pm_device.deep_snapshot snapshot_dev)));
      Test.make ~name:"end-to-end: detect one btree insert"
        (Staged.stage (fun () ->
             ignore (Xfd.Engine.detect (Xfd_workloads.Btree.program ~init_size:1 ~size:1 ()))));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true () in
  Printf.printf "\n== Microbenchmarks (bechamel; ns per run, OLS estimate) ==\n";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let results = Benchmark.run cfg instances elt in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
              Toolkit.Instance.monotonic_clock results
          in
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-46s %14.0f ns\n" (Test.Elt.name elt) est
          | Some _ | None -> Printf.printf "%-46s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests

(* Extract "--FLAG FILE" from the argument list. *)
let rec extract_flag flag acc = function
  | [] -> (None, List.rev acc)
  | f :: path :: rest when f = flag -> (Some path, List.rev_append acc rest)
  | a :: rest -> extract_flag flag (a :: acc) rest

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let args = List.filter (fun a -> a <> "--full") args in
  let engine_arg, args = extract_flag "--engine" [] args in
  let engine_filter =
    Option.map
      (function
        | "incremental" -> `Incremental
        | "fresh" -> `Fresh
        | other ->
          Printf.eprintf "bench: --engine wants incremental|fresh (got %S)\n" other;
          exit 2)
      engine_arg
  in
  let metrics_out, args = extract_flag "--metrics-out" [] args in
  let trace_out, args = extract_flag "--trace-out" [] args in
  let pulse_port, args = extract_flag "--pulse-port" [] args in
  let pulse_interval, args = extract_flag "--pulse-interval" [] args in
  let port =
    Option.map
      (fun p ->
        match int_of_string_opt p with
        | Some p when p >= 0 && p <= 65535 -> p
        | _ ->
          prerr_endline "bench: --pulse-port wants a port number";
          exit 2)
      pulse_port
  in
  let interval =
    match Option.map float_of_string_opt pulse_interval with
    | None -> Xfd_pulse.Session.default.interval
    | Some (Some s) when s > 0.0 -> s
    | Some _ ->
      prerr_endline "bench: --pulse-interval wants seconds > 0";
      exit 2
  in
  (* at_exit, not [Session.with_]: an experiment may [exit] early. *)
  let session =
    Xfd_pulse.Session.start
      { Xfd_pulse.Session.default with metrics_out; trace_out; port; interval }
  in
  at_exit (fun () -> Xfd_pulse.Session.stop session);
  let what = match args with [] -> "all" | w :: _ -> w in
  let header () =
    Printf.printf "XFDetector reproduction: evaluation harness (Liu et al., ASPLOS 2020)\n"
  in
  match what with
  | "fig12a" | "fig12b" | "fig12" -> run_fig12 ()
  | "fig13" -> run_fig13 ~full ()
  | "table4" -> run_table4 ()
  | "table5" -> run_table5 ()
  | "newbugs" -> run_newbugs ()
  | "capability" -> run_capability ()
  | "ablation" -> run_ablation ()
  | "mechanisms" -> run_mechanisms ()
  | "parallel" -> run_parallel ()
  | "mtsweep" -> run_mtsweep ()
  | "snapshots" -> run_snapshot_bench ()
  | "detect" -> run_detect_bench ?engine_filter ()
  | "lint" -> run_lint_bench ()
  | "micro" -> microbenches ()
  | "all" ->
    header ();
    run_table4 ();
    run_newbugs ();
    run_capability ();
    run_table5 ();
    run_mechanisms ();
    run_fig12 ();
    run_fig13 ~full ();
    run_ablation ();
    run_mtsweep ();
    run_parallel ();
    run_snapshot_bench ();
    run_detect_bench ();
    microbenches ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (expected fig12a|fig12b|fig13|table4|table5|newbugs|capability|ablation|mechanisms|mtsweep|parallel|snapshots|detect|lint|micro|all)\n"
      other;
    exit 2
