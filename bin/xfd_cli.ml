(* The xfd command-line tool — the artifact's run.sh analogue.

     xfd run --workload btree --init 5 --test 5 [--patch skip-tx-add=0,2]
     xfd lint --workload btree [--patch ...] [--triage]
     xfd lint --trace pre.trace [--domain eadr | --diff-domains]
     xfd trace record -w btree --test 3 --pre pre.trace --post post.trace
     xfd trace stats pre.trace | dump pre.trace --head 20 | explain pre.trace --at 7
     xfd trace check --pre pre.trace --post post.trace
     xfd list | newbugs | table5 [--workload btree]
     xfd fuzz --seed 42 --budget 200 [--corpus DIR]
     xfd top --connect 9900
     xfd serve --port 8080 --workers 4 [--quota 2 --corpus corpus/]
     xfd submit --connect 8080 -w btree --patch skip-tx-add=0 --await
     xfd await --connect 8080 --job j1 --report-out report.json

   [run] executes one workload under full cross-failure detection and
   prints the report; [--patch] seeds mechanical bugs like the artifact's
   patch files.  [trace] is the section 5.5 decoupling: traces are plain
   one-line-per-event text, so they can be recorded here or by any other
   tracer, inspected, linted ([lint --trace]) and checked offline.
   [serve] keeps the same pipeline resident behind an HTTP job protocol;
   [submit]/[await] are its client.

   A usage error — an unknown workload, domain or rule id, a bad patch, an
   unreadable trace — prints one line and exits 2. *)

open Cmdliner
module Session = Xfd_pulse.Session

let usage fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* ---- the workload a command runs: -w / --init / --test / --patch ---- *)

let workload_names =
  List.map
    (fun e -> String.lowercase_ascii e.Xfd_experiments.Workload_set.name)
    Xfd_experiments.Workload_set.extended

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Workload (%s; case and punctuation are ignored)."
             (String.concat ", " workload_names)))

let test_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "test" ] ~docv:"N" ~doc:"Insertions/queries inside the RoI (default 1).")

type workload = {
  name : string option;
  init : int option;
  test : int option;
  patch : string option;
}

let workload_term =
  let init =
    Arg.(
      value
      & opt (some int) None
      & info [ "init" ] ~docv:"N" ~doc:"Warm-up insertions before the RoI (default 0).")
  in
  let patch =
    Arg.(
      value
      & opt (some string) None
      & info [ "patch" ] ~docv:"SPEC"
          ~doc:
            "Seed mechanical bugs: semicolon-separated kind=occurrences, e.g. \
             $(b,skip-tx-add=0,2;dup-flush=1).  Kinds: skip-flush, skip-fence, \
             skip-tx-add, dup-flush, dup-tx-add.")
  in
  Term.(
    const (fun name init test patch -> { name; init; test; patch })
    $ workload_arg $ init $ test_arg $ patch)

let find_workload = function
  | None -> usage "a workload is required (-w NAME)"
  | Some name -> (
    try Xfd_experiments.Workload_set.find name
    with Invalid_argument _ ->
      usage "unknown workload %S (want one of %s)" name (String.concat ", " workload_names))

(* The program a workload term names and its fault plan; the patch parser
   is the detection service's, so a patch that works locally works over
   the wire too. *)
let resolve w =
  let entry = find_workload w.name in
  let faults =
    match w.patch with
    | None -> Xfd_sim.Faults.none
    | Some s -> (
      match Xfd_serve.Job.faults_of_spec s with Ok f -> f | Error e -> usage "bad --patch: %s" e)
  in
  ( entry.Xfd_experiments.Workload_set.make
      ~init:(Option.value w.init ~default:0)
      ~test:(Option.value w.test ~default:1),
    faults )

(* ---- telemetry: one session term for every command that runs the engine ---- *)

let session_term =
  let file name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc) in
  let metrics_out =
    file "metrics-out"
      "Stream telemetry as JSONL to $(docv): one record per pipeline span plus a final \
       summary record (counters — the pm.*, engine.* and fuzz.* families — histograms \
       and per-phase span durations)."
  in
  let quiet_metrics =
    Arg.(
      value & flag
      & info [ "quiet-metrics" ] ~doc:"Do not print the human-readable telemetry summary.")
  in
  let trace_out =
    file "trace-out"
      "Export every span of the command as Chrome trace-event JSON to $(docv) — open it in \
       ui.perfetto.dev or chrome://tracing.  One track per domain, so parallel \
       post-failure runs show as overlapping post_run slices."
  in
  let live =
    Arg.(
      value & flag
      & info [ "pulse" ]
          ~doc:
            "Render a live terminal dashboard (progress, bug tallies, PM traffic, \
             throughput sparkline) on stderr while the command runs.  Implies the \
             time-series sampler.  Observation-only.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "pulse-port" ] ~docv:"PORT"
          ~doc:
            "Serve live metrics over HTTP on 127.0.0.1:$(docv) while the command runs: \
             $(b,/metrics) (OpenMetrics), $(b,/health), $(b,/ready), $(b,/series), \
             $(b,/flight), $(b,/summary).  Port 0 picks an ephemeral port (printed on \
             stderr).  Implies the time-series sampler.")
  in
  let interval =
    Arg.(
      value & opt float 0.25
      & info [ "pulse-interval" ] ~docv:"SECS"
          ~doc:"Sampling interval for the time-series recorder (default 0.25s).")
  in
  let linger =
    Arg.(
      value & opt float 0.0
      & info [ "pulse-linger" ] ~docv:"SECS"
          ~doc:
            "Keep the pulse server and sampler alive $(docv) seconds after the command \
             finishes, so a scraper can observe the final (done) state.")
  in
  let pulse_out =
    file "pulse-out"
      "Write the sampled time series as JSONL to $(docv) at the end of the run (one line \
       per series).  Implies the time-series sampler."
  in
  Term.(
    const
      (fun metrics_out quiet_metrics trace_out live port interval linger pulse_out ->
        {
          Session.metrics_out;
          trace_out;
          flight_out = None;
          summary = not quiet_metrics;
          live;
          port;
          interval;
          linger;
          pulse_out;
        })
    $ metrics_out $ quiet_metrics $ trace_out $ live $ port $ interval $ linger $ pulse_out)

(* Live progress bar for the post-failure stage.  The engine may invoke
   the callback from whichever worker domain finished a run, so renders
   are serialized with a mutex and throttled; the final report always
   renders and ends the line. *)
let progress_renderer () =
  let mu = Mutex.create () in
  let t0 = Unix.gettimeofday () in
  let last = ref 0.0 in
  fun (p : Xfd.Engine.progress) ->
    Mutex.protect mu (fun () ->
        let now = Unix.gettimeofday () in
        let final = p.completed >= p.total in
        if final || now -. !last >= 0.05 then begin
          last := now;
          let elapsed = now -. t0 in
          let rate = if elapsed > 0.0 then float_of_int p.completed /. elapsed else 0.0 in
          let eta =
            if rate > 0.0 then float_of_int (p.total - p.completed) /. rate else 0.0
          in
          let width = 24 in
          let filled =
            if p.total <= 0 then width else min width (width * p.completed / p.total)
          in
          let bar = String.make filled '#' ^ String.make (width - filled) '-' in
          Printf.eprintf "\r[%s] %d/%d failure points  %4.0f fp/s  ETA %4.1fs%!" bar
            p.completed p.total rate eta;
          if final then prerr_newline ()
        end)

(* Merge independent progress observers into one callback. *)
let merge_progress observers =
  match List.filter_map Fun.id observers with
  | [] -> None
  | fs -> Some (fun p -> List.iter (fun f -> f p) fs)

let run_cmd =
  let naive =
    Arg.(
      value & flag
      & info [ "naive-injection" ]
          ~doc:
            "Inject a failure point after every PM update instead of only at ordering \
             points.")
  in
  let untrusted =
    Arg.(
      value & flag
      & info [ "test-library" ]
          ~doc:"Instrument PM-library internals too (trust_library = false).")
  in
  let oracle =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:
            "Use the fresh-replay oracle engine: rebuild the per-byte shadow state from \
             event 0 at every failure point instead of advancing one canonical prefix \
             incrementally.  Quadratic in the pre-failure trace — kept for \
             cross-checking; the verdict set is byte-identical to the default engine.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print only the summary line.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the full outcome as JSON.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-out" ] ~docv:"FILE"
          ~doc:
            "Write the full detection report as pretty JSON to $(docv), with per-bug \
             provenance chains and the run's coverage block (enables forensics).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print each unique bug with its provenance chain — the pre-failure \
             write/writeback/fence (and framing commit) events behind the verdict, with \
             trace-timeline excerpts — plus the run's coverage report (enables \
             forensics).")
  in
  let fail_on_bug =
    Arg.(
      value & flag
      & info [ "fail-on-bug" ]
          ~doc:"Exit non-zero when any unique bug is reported — for CI gating.")
  in
  let allow_perf =
    Arg.(
      value & flag
      & info [ "allow-perf" ]
          ~doc:
            "With $(b,--fail-on-bug), do not fail on performance bugs alone (races, \
             semantic bugs and post-failure errors still fail).")
  in
  let lint_guided =
    Arg.(
      value & flag
      & info [ "lint-guided" ]
          ~doc:
            "Lint the pre-failure trace first and post-execute statically suspicious \
             failure points before clean ones.  Scheduling only: the verdict set is \
             identical to the default order.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Render a live progress bar (failure points done/total, throughput, ETA) on \
             stderr while the post-failure stage runs.  Observation-only: the verdict is \
             byte-identical with or without it.")
  in
  let flight_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:
            "Write the flight-recorder run log as JSONL to $(docv): lifecycle events \
             (run.begin, fp.scheduled/started/verdict, snapshot.recorded/dropped, \
             worker.join, run.end) with per-run id and sampled GC gauges.  Enables \
             debug-level recording for this run.")
  in
  let action w naive untrusted oracle quiet json report_out explain fail_on_bug allow_perf
      lint_guided progress flight_out telemetry =
    let program, faults = resolve w in
    let config =
      {
        Xfd.Config.default with
        faults;
        strategy = (if naive then Xfd_sim.Ctx.Every_update else Xfd_sim.Ctx.Ordering_points);
        trust_library = not untrusted;
        forensics = explain || report_out <> None;
        engine = (if oracle then `Fresh else `Incremental);
      }
    in
    let code =
      Session.with_ { telemetry with flight_out } (fun session ->
          let pulse =
            Option.map
              (fun note (p : Xfd.Engine.progress) ->
                note ~completed:p.completed ~total:p.total)
              (Session.progress session)
          in
          let on_progress =
            merge_progress [ (if progress then Some (progress_renderer ()) else None); pulse ]
          in
          let outcome =
            if lint_guided then begin
              let lint, outcome = Xfd_lint.Lint.detect_guided ~config ?on_progress program in
              if not (quiet || json) then Format.printf "%a@." Xfd_lint.Lint.pp_report lint;
              outcome
            end
            else Xfd.Engine.detect ~config ?on_progress program
          in
          let r, s, p, e = Xfd.Engine.tally outcome in
          if json then
            print_endline (Xfd_util.Json.to_string_pretty (Xfd.Engine.outcome_to_json outcome))
          else if quiet then
            Printf.printf
              "%s: %d failure points, races=%d semantic=%d perf=%d errors=%d (%.1f ms)\n"
              outcome.Xfd.Engine.program outcome.Xfd.Engine.failure_points r s p e
              (1000.0 *. Xfd.Engine.total_wall outcome)
          else Format.printf "%a" Xfd.Engine.pp_outcome outcome;
          if explain then begin
            Format.printf "@.-- forensics --@.";
            List.iter
              (fun b -> Format.printf "%a" Xfd.Report.pp_bug_explained b)
              outcome.Xfd.Engine.unique_bugs;
            Format.printf "%a" Xfd_forensics.Coverage.pp outcome.Xfd.Engine.coverage
          end;
          Option.iter
            (fun file ->
              Xfd_util.Json.to_file file
                (Xfd.Engine.report_envelope (Xfd.Engine.outcome_to_json outcome));
              Format.eprintf "report written to %s@." file)
            report_out;
          let failing = if allow_perf then r + s + e else r + s + p + e in
          if fail_on_bug && failing > 0 then 1 else 0)
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under cross-failure detection")
    Term.(
      const action $ workload_term $ naive $ untrusted $ oracle $ quiet $ json $ report_out
      $ explain $ fail_on_bug $ allow_perf $ lint_guided $ progress $ flight_out
      $ session_term)

let list_cmd =
  let action () =
    List.iter
      (fun e ->
        Printf.printf "%-16s %s\n" e.Xfd_experiments.Workload_set.name
          (match e.Xfd_experiments.Workload_set.kind with
          | `Tx -> "transaction-based"
          | `Low_level -> "low-level persists"))
      Xfd_experiments.Workload_set.extended
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available workloads") Term.(const action $ const ())

let newbugs_cmd =
  let action () =
    let findings = Xfd_experiments.Newbugs_exp.run () in
    Xfd_experiments.Newbugs_exp.print findings;
    if not (Xfd_experiments.Newbugs_exp.all_found findings) then exit 1
  in
  Cmd.v
    (Cmd.info "newbugs" ~doc:"Reproduce the paper's four new bugs (section 6.3.2)")
    Term.(const action $ const ())

let table5_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Restrict to one workload.")
  in
  let action workload =
    match workload with
    | None ->
      let rows = Xfd_experiments.Table5_exp.run () in
      Xfd_experiments.Table5_exp.print rows;
      if not (Xfd_experiments.Table5_exp.all_detected rows) then exit 1
    | Some w ->
      List.iter
        (fun c ->
          let _, ok = Xfd_workloads.Bug_suite.run c in
          Printf.printf "%-28s %s\n" c.Xfd_workloads.Bug_suite.id
            (if ok then "detected" else "MISSED"))
        (Xfd_workloads.Bug_suite.cases w)
  in
  Cmd.v
    (Cmd.info "table5" ~doc:"Run the synthetic-bug validation suite (Table 5)")
    Term.(const action $ workload)

(* ---- trace files ---- *)

let read_trace file =
  match In_channel.with_open_text file Xfd_trace.Trace.load with
  | Ok t -> Ok t
  | Error (n, line) ->
    let line = if String.length line > 60 then String.sub line 0 60 ^ "..." else line in
    Error (Printf.sprintf "%s:%d: not a trace event: %S" file n line)
  | exception Sys_error e -> Error ("cannot read trace: " ^ e)

let load_trace file = match read_trace file with Ok t -> t | Error e -> usage "%s" e

let save_trace t file = Out_channel.with_open_text file (Xfd_trace.Trace.save t)

let trace_file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let lint_cmd =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Lint a recorded pre-failure trace ($(b,xfd trace record), or any tracer \
             writing the same format) instead of tracing a workload.  No execution, no \
             replay.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the lint report (and triage) as JSON.")
  in
  let triage =
    Arg.(
      value & flag
      & info [ "triage" ]
          ~doc:
            "Also run full dynamic detection on the same configuration and cross-check: \
             which dynamic verdicts the linter anticipated, which it missed, and which \
             findings no dynamic verdict confirmed.")
  in
  let triage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage-out" ] ~docv:"FILE"
          ~doc:"Write the triage table as pretty JSON to $(docv) (implies $(b,--triage)).")
  in
  let expect =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect" ] ~docv:"IDS"
          ~doc:
            "Comma-separated rule ids that must all fire; exit non-zero when any is \
             missing — for CI gating of seeded-bug variants.")
  in
  let domain =
    Arg.(
      value & opt string "adr"
      & info [ "domain" ] ~docv:"MODEL"
          ~doc:
            "Persistence-domain model to lint under: $(b,adr) (default), $(b,eadr) or \
             $(b,cxl-gpf).")
  in
  let diff_domains =
    Arg.(
      value & flag
      & info [ "diff-domains" ]
          ~doc:
            "Lint the same trace under every domain model and classify each finding \
             key as stable / appears / disappears relative to the $(b,--domain) \
             baseline.")
  in
  let action w trace json triage triage_out expect domain_s diff_domains =
    let domain =
      match Xfd_trace.Domain_model.of_string domain_s with
      | Some d -> d
      | None -> usage "unknown persistence-domain model %S (want adr|eadr|cxl-gpf)" domain_s
    in
    let expected =
      Option.fold ~none:[] ~some:(String.split_on_char ',') expect
      |> List.filter (fun id -> id <> "")
      |> List.map (fun id ->
             if Xfd_lint.Lint.rule_of_id id = None then usage "unknown rule id %S" id;
             id)
    in
    let do_triage = triage || triage_out <> None in
    (* The one input difference: a trace file, or the trace of a workload
       run (which [--triage] can also detect on). *)
    let pre, prog =
      match trace with
      | Some file ->
        if w <> { name = None; init = None; test = None; patch = None } || do_triage then
          usage "lint --trace takes no -w, --init, --test, --patch, --triage or --triage-out";
        (load_trace file, None)
      | None ->
        if w.name = None then usage "lint needs -w NAME or --trace FILE";
        let program, faults = resolve w in
        let config = { Xfd.Config.default with faults; domain } in
        (Xfd_lint.Lint.pre_trace ~config program, Some (config, program))
    in
    let diff =
      if diff_domains then Some (Xfd_lint.Lint.diff_domains ~baseline:domain pre) else None
    in
    let report =
      match diff with
      | Some d -> List.assoc domain d.Xfd_lint.Lint.reports
      | None -> Xfd_lint.Lint.check_trace ~domain pre
    in
    let tri =
      match prog with
      | Some (config, program) when do_triage ->
        Some
          (Xfd_lint.Lint.triage_of ~program:program.Xfd.Engine.name report
             (Xfd.Engine.detect ~config program))
      | _ -> None
    in
    if json then
      print_endline
        (Xfd_util.Json.to_string_pretty
           (match (diff, tri) with
           | Some d, _ -> Xfd_lint.Lint.diff_to_json d
           | None, Some t -> Xfd_lint.Lint.triage_to_json t
           | None, None -> Xfd_lint.Lint.report_to_json report))
    else begin
      (match diff with
      | Some d -> Format.printf "%a@." Xfd_lint.Lint.pp_diff d
      | None -> Format.printf "%a@." Xfd_lint.Lint.pp_report report);
      Option.iter (fun t -> Format.printf "%a@." Xfd_lint.Lint.pp_triage t) tri
    end;
    (match (triage_out, tri) with
    | Some file, Some t ->
      Xfd_util.Json.to_file file (Xfd_lint.Lint.triage_to_json t);
      Format.eprintf "triage written to %s@." file
    | _ -> ());
    (* The exit contract: 0 = clean, 1 = findings or a missed expectation,
       2 = usage or I/O error ([usage]).  With --expect the findings are
       the point, so meeting every expectation exits 0.  With
       --diff-domains "clean" means clean under every analysed model. *)
    let fired =
      List.map (fun f -> Xfd_lint.Lint.rule_id f.Xfd_lint.Lint.rule) report.Xfd_lint.Lint.findings
    in
    let missing = List.filter (fun id -> not (List.mem id fired)) expected in
    if missing <> [] then begin
      Printf.eprintf "expected rule(s) did not fire: %s\n" (String.concat ", " missing);
      exit 1
    end;
    let clean =
      match diff with
      | Some d -> Xfd_lint.Lint.diff_clean d
      | None -> Xfd_lint.Lint.clean report
    in
    if expected = [] && not clean then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a pre-failure trace — a workload's ($(b,-w)) or a recorded \
          one ($(b,--trace)) — for crash-consistency rule violations, optionally under \
          different persistence-domain models ($(b,--domain), $(b,--diff-domains)) or \
          cross-checked against the dynamic detector. Exits 0 when clean, 1 on findings \
          or a missed $(b,--expect), 2 on usage or I/O errors.")
    Term.(
      const action $ workload_term $ trace $ json $ triage $ triage_out $ expect $ domain
      $ diff_domains)

(* ---- xfd trace: record, inspect and offline-check trace files ---- *)

let record_cmd =
  let pre_out =
    Arg.(
      value & opt string "pre.trace"
      & info [ "pre" ] ~docv:"FILE" ~doc:"Pre-failure trace output.")
  in
  let post_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "post" ] ~docv:"FILE"
          ~doc:"Also save the post-failure trace (run after the complete pre-failure stage).")
  in
  let action name test pre_out post_out =
    let entry = find_workload name in
    let program =
      entry.Xfd_experiments.Workload_set.make ~init:0 ~test:(Option.value test ~default:1)
    in
    let _, pre, post = Xfd.Engine.run_once program in
    save_trace pre pre_out;
    Printf.printf "recorded %d pre-failure events to %s\n" (Xfd_trace.Trace.length pre) pre_out;
    Option.iter
      (fun file ->
        save_trace post file;
        Printf.printf "recorded %d post-failure events to %s\n"
          (Xfd_trace.Trace.length post) file)
      post_out
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Trace one failure-free run of a workload to files")
    Term.(const action $ workload_arg $ test_arg $ pre_out $ post_out)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as one JSON object.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Keep running and re-render whenever $(i,FILE) changes (polled by \
             mtime/size) — live view of a trace being recorded.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll interval for $(b,--watch).")
  in
  let watch_count =
    Arg.(
      value
      & opt (some int) None
      & info [ "watch-count" ] ~docv:"N"
          ~doc:"With $(b,--watch), exit after $(docv) renders (for scripting/tests).")
  in
  let render file t json =
    let c = Xfd_trace.Trace.counts t in
    (* Access-size distributions, through the same histogram machinery the
       online pipeline reports with. *)
    let h_writes = Xfd_obs.Obs.Histogram.make "trace.write_bytes" in
    let h_reads = Xfd_obs.Obs.Histogram.make "trace.read_bytes" in
    Xfd_trace.Trace.iter t (fun ev ->
        match ev.Xfd_trace.Event.kind with
        | Xfd_trace.Event.Write { size; _ } | Xfd_trace.Event.Nt_write { size; _ } ->
          Xfd_obs.Obs.Histogram.observe h_writes size
        | Xfd_trace.Event.Read { size; _ } -> Xfd_obs.Obs.Histogram.observe h_reads size
        | _ -> ());
    if json then begin
      let hist h =
        Xfd_util.Json.Obj
          [
            ("count", Xfd_util.Json.Int (Xfd_obs.Obs.Histogram.count h));
            ("sum", Xfd_util.Json.Int (Xfd_obs.Obs.Histogram.sum h));
            ("max", Xfd_util.Json.Int (Xfd_obs.Obs.Histogram.max_value h));
            ( "buckets",
              Xfd_util.Json.Arr
                (List.map
                   (fun (le, n) ->
                     Xfd_util.Json.Obj
                       [ ("le", Xfd_util.Json.Int le); ("count", Xfd_util.Json.Int n) ])
                   (Xfd_obs.Obs.Histogram.buckets h)) );
          ]
      in
      print_endline
        (Xfd_util.Json.to_string
           (Xfd_util.Json.Obj
              [
                ("type", Xfd_util.Json.Str "trace_stats");
                ("file", Xfd_util.Json.Str file);
                ("events", Xfd_util.Json.Int (Xfd_trace.Trace.length t));
                ("writes", Xfd_util.Json.Int c.Xfd_trace.Trace.writes);
                ("reads", Xfd_util.Json.Int c.Xfd_trace.Trace.reads);
                ("flushes", Xfd_util.Json.Int c.Xfd_trace.Trace.flushes);
                ("fences", Xfd_util.Json.Int c.Xfd_trace.Trace.fences);
                ("tx_ops", Xfd_util.Json.Int c.Xfd_trace.Trace.tx_ops);
                ("annotations", Xfd_util.Json.Int c.Xfd_trace.Trace.annotations);
                ("write_bytes", hist h_writes);
                ("read_bytes", hist h_reads);
              ]))
    end
    else begin
      Printf.printf "%s: %d events\n" file (Xfd_trace.Trace.length t);
      Printf.printf "  writes       %d\n" c.Xfd_trace.Trace.writes;
      Printf.printf "  reads        %d\n" c.Xfd_trace.Trace.reads;
      Printf.printf "  flushes      %d\n" c.Xfd_trace.Trace.flushes;
      Printf.printf "  fences       %d\n" c.Xfd_trace.Trace.fences;
      Printf.printf "  tx ops       %d\n" c.Xfd_trace.Trace.tx_ops;
      Printf.printf "  annotations  %d\n" c.Xfd_trace.Trace.annotations;
      let print_hist label h =
        if Xfd_obs.Obs.Histogram.count h > 0 then begin
          Printf.printf "  %s: count=%d sum=%d max=%d\n" label
            (Xfd_obs.Obs.Histogram.count h) (Xfd_obs.Obs.Histogram.sum h)
            (Xfd_obs.Obs.Histogram.max_value h);
          List.iter
            (fun (le, n) -> Printf.printf "    le %-8d %d\n" le n)
            (Xfd_obs.Obs.Histogram.buckets h)
        end
      in
      print_hist "write sizes" h_writes;
      print_hist "read sizes" h_reads
    end
  in
  let action file json watch interval watch_count =
    if not watch then render file (load_trace file) json
    else begin
      (* Poll mtime/size on the pulse layer's shared ticker; re-render on
         change.  The access-size histograms are process-global Obs
         metrics, so they are reset before every render — otherwise each
         pass would accumulate on the last. *)
      let renders = ref 0 in
      let last = ref None in
      ignore
        (Xfd_pulse.Ticker.loop ~interval (fun _tick ->
             (match Unix.stat file with
             | exception Unix.Unix_error (e, _, _) ->
               Printf.printf "%s: %s (waiting)\n%!" file (Unix.error_message e)
             | st ->
               let key = Some (st.Unix.st_mtime, st.Unix.st_size) in
               if key <> !last then begin
                 last := key;
                 incr renders;
                 if not json then Printf.printf "\n-- render #%d --\n" !renders;
                 Xfd_obs.Obs.reset ();
                 (match read_trace file with
                 | Ok t -> render file t json
                 | Error e -> print_endline e);
                 flush stdout
               end);
             match watch_count with
             | Some k when !renders >= k -> `Stop
             | _ -> `Continue))
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Event counts and access-size histograms of a trace file")
    Term.(const action $ trace_file_arg $ json $ watch $ interval $ watch_count)


let dump_cmd =
  let head = Arg.(value & opt int max_int & info [ "head" ] ~docv:"N") in
  let range =
    Arg.(
      value
      & opt (some string) None
      & info [ "range" ] ~docv:"FROM:TO"
          ~doc:
            "Print only events $(i,FROM) to $(i,TO) (half-open, clamped to the \
             trace), rendered as a timeline.  Overrides $(b,--head).")
  in
  let parse_range s =
    match String.split_on_char ':' s with
    | [ a; b ] -> begin
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some from, Some upto when from >= 0 && upto >= from -> (from, upto)
      | _ -> usage "bad --range %S (want FROM:TO, 0 <= FROM <= TO)" s
    end
    | _ -> usage "bad --range %S (want FROM:TO)" s
  in
  let action file head range =
    let t = load_trace file in
    match range with
    | Some spec ->
      let from, upto = parse_range spec in
      List.iter print_endline (Xfd_forensics.Timeline.range t ~from ~upto ~marks:[])
    | None ->
      Xfd_trace.Trace.iter_prefix t head (fun ev ->
          Format.printf "%a@." Xfd_trace.Event.pp ev)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Pretty-print a trace file")
    Term.(const action $ trace_file_arg $ head $ range)

let explain_cmd =
  let at =
    Arg.(
      required
      & opt (some int) None
      & info [ "at" ] ~docv:"INDEX" ~doc:"Event index to explain.")
  in
  let radius =
    Arg.(
      value
      & opt int Xfd_forensics.Timeline.default_radius
      & info [ "radius" ] ~docv:"N" ~doc:"Context events on each side.")
  in
  let action file at radius =
    let t = load_trace file in
    let len = Xfd_trace.Trace.length t in
    if at < 0 || at >= len then usage "index %d out of range (trace has %d events)" at len;
    let ev = Xfd_trace.Trace.get t at in
    Format.printf "%s: event %d of %d@." file at len;
    (* For a store, chase its persistence through the rest of the trace:
       which later flush captured the line, and which fence persisted it —
       the manual walk a provenance chain automates. *)
    (match ev.Xfd_trace.Event.kind with
    | Xfd_trace.Event.Write { addr; size } | Xfd_trace.Event.Nt_write { addr; size } ->
      let line = Xfd_mem.Addr.line_of addr in
      let nt =
        match ev.Xfd_trace.Event.kind with Xfd_trace.Event.Nt_write _ -> true | _ -> false
      in
      let flush_at = ref (if nt then Some at else None) in
      let fence_at = ref None in
      (try
         for i = at + 1 to len - 1 do
           let e = Xfd_trace.Trace.get t i in
           match e.Xfd_trace.Event.kind with
           | Xfd_trace.Event.Clwb { addr = a }
           | Xfd_trace.Event.Clflush { addr = a }
           | Xfd_trace.Event.Clflushopt { addr = a } ->
             if !flush_at = None && Xfd_mem.Addr.line_of a = line then flush_at := Some i
           | Xfd_trace.Event.Sfence | Xfd_trace.Event.Mfence ->
             if !flush_at <> None then begin
               fence_at := Some i;
               raise Exit
             end
           | Xfd_trace.Event.Write { addr = a; size = s }
           | Xfd_trace.Event.Nt_write { addr = a; size = s } ->
             (* Overwritten before being written back: stop the chase. *)
             if !flush_at = None && Xfd_mem.Addr.overlap (a, s) (addr, size) then raise Exit
           | _ -> ()
         done
       with Exit -> ());
      (match (!flush_at, !fence_at) with
      | None, _ ->
        Format.printf "store to %a+%d: never written back in this trace@."
          Xfd_mem.Addr.pp addr size
      | Some f, None ->
        Format.printf
          "store to %a+%d: written back at event %d but no later fence — not \
           guaranteed persisted@."
          Xfd_mem.Addr.pp addr size f
      | Some f, Some s ->
        if nt && f = at then
          Format.printf "store to %a+%d: non-temporal, persisted by fence at event %d@."
            Xfd_mem.Addr.pp addr size s
        else
          Format.printf
            "store to %a+%d: written back at event %d, persisted by fence at event %d@."
            Xfd_mem.Addr.pp addr size f s)
    | _ -> ());
    Format.printf "timeline:@.";
    List.iter
      (fun (e : Xfd_forensics.Timeline.excerpt) ->
        List.iter (fun l -> Format.printf "  %s@." l) e.Xfd_forensics.Timeline.lines)
      (Xfd_forensics.Timeline.excerpts t ~indices:[ at ] ~radius)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the timeline around one event; for stores, chase the writeback and \
          fence that (fail to) persist them")
    Term.(const action $ trace_file_arg $ at $ radius)


let check_cmd =
  let pre = Arg.(required & opt (some string) None & info [ "pre" ] ~docv:"FILE") in
  let post = Arg.(required & opt (some string) None & info [ "post" ] ~docv:"FILE") in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Attach a provenance chain to every finding.")
  in
  let action pre post explain =
    let pre_t = load_trace pre and post_t = load_trace post in
    let det = Xfd.Detector.create ~forensics:explain () in
    Xfd.Detector.replay det pre_t ~from:0 ~upto:(Xfd_trace.Trace.length pre_t);
    let fork = Xfd.Detector.fork_for_post det in
    Xfd.Detector.replay fork post_t ~from:0 ~upto:(Xfd_trace.Trace.length post_t);
    let bugs = Xfd.Detector.bugs fork @ Xfd.Detector.bugs det in
    Printf.printf "offline check (%d pre + %d post events): %d finding(s)\n"
      (Xfd_trace.Trace.length pre_t) (Xfd_trace.Trace.length post_t) (List.length bugs);
    List.iter
      (fun b ->
        if explain then Format.printf "  %a" Xfd.Report.pp_bug_explained b
        else Format.printf "  %a@." Xfd.Report.pp_bug b)
      bugs;
    if bugs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the detection backend over recorded traces")
    Term.(const action $ pre $ post $ explain)


let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, inspect and offline-check PM-operation trace files (lint them with \
          $(b,xfd lint --trace))")
    [ record_cmd; stats_cmd; dump_cmd; explain_cmd; check_cmd ]

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Base seed for the run.")
  in
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"K" ~doc:"Number of programs to generate and check.")
  in
  let profile =
    let profile_conv =
      Arg.conv
        ( (fun s ->
            match Xfd_fuzz.Gen.profile_of_string s with
            | Ok p -> Ok p
            | Error e -> Error (`Msg e)),
          fun ppf p -> Format.pp_print_string ppf (Xfd_fuzz.Gen.profile_to_string p) )
    in
    Arg.(
      value
      & opt profile_conv Xfd_fuzz.Gen.Buggy
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Generator profile: $(b,correct) (clean protocols, zero findings expected), \
             $(b,buggy) (seeded PM bugs; the default) or $(b,wild) (unconstrained op \
             soup for differential testing).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory: its $(b,.xfdprog) files are replayed first as a \
             regression gate, and shrunk repros from this run are saved into it.")
  in
  let max_repros =
    Arg.(
      value & opt int 5
      & info [ "max-repros" ] ~docv:"N" ~doc:"Cap on harvested bug repros per run.")
  in
  let shrink_budget =
    Arg.(
      value & opt int 400
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Max predicate evaluations per shrink (each is one engine run).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one $(b,.xfdprog) file against its $(b,expect) lines and exit; no \
             fuzzing.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print only the summary.") in
  (* A fuzz sweep has no single-run progress; the pulse sampler still
     captures the fuzz.* counters as they advance. *)
  let action seed budget profile corpus max_repros shrink_budget replay quiet telemetry =
    let ok =
      Session.with_ telemetry (fun _ ->
          match replay with
          | Some file -> (
            match Xfd_fuzz.Corpus.check file with
            | Ok () ->
              Printf.printf "%s: verdicts match\n" file;
              true
            | Error e ->
              Printf.printf "%s\n" e;
              false)
          | None ->
            let cfg =
              {
                Xfd_fuzz.Fuzz.seed;
                budget;
                profile;
                corpus_dir = corpus;
                max_repros;
                shrink_budget;
              }
            in
            let out = if quiet then None else Some Format.std_formatter in
            let summary = Xfd_fuzz.Fuzz.run ?out cfg in
            Format.printf "%a" Xfd_fuzz.Fuzz.pp_summary summary;
            Xfd_fuzz.Fuzz.clean summary)
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential workload fuzzing: generated PM programs checked against a \
          sequential reference oracle and metamorphic properties, with shrinking and a \
          reproducible corpus")
    Term.(
      const action $ seed $ budget $ profile $ corpus $ max_repros $ shrink_budget $ replay
      $ quiet $ session_term)

(* "HOST:PORT" or a bare port. *)
let endpoint s =
  match Xfd_pulse.Httpc.parse_endpoint s with Ok hp -> hp | Error e -> usage "%s" e

let top_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Pulse endpoint of a running detection (started with $(b,run --pulse-port)). \
             A bare port means 127.0.0.1.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval (default 1s).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) refreshes (0 = until interrupted or the run is done).")
  in
  let once = Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit.") in
  let action connect interval count once =
    let host, port = endpoint connect in
    let count = if once then 1 else count in
    let show = Xfd_pulse.Dash.redrawer stdout in
    let failed = ref false in
    ignore
      (Xfd_pulse.Ticker.loop ~interval (fun tick ->
           match Xfd_pulse.Dash.snap_remote ~host ~port with
           | Error e ->
             Printf.eprintf "top: %s\n%!" e;
             failed := true;
             `Stop
           | Ok snap ->
             show (Xfd_pulse.Dash.render snap);
             let last = count > 0 && tick >= count - 1 in
             (* A finished run stops the watch on its own once we have
                shown the done state. *)
             if last || (count = 0 && snap.Xfd_pulse.Dash.status = "done") then `Stop
             else `Continue));
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running detection: polls a pulse endpoint and renders \
          progress, bug tallies, PM traffic and a throughput sparkline")
    Term.(const action $ connect $ interval $ count $ once)

(* ---- the detection service: serve / submit / await ---- *)

let connect_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Endpoint of a running detection service (started with $(b,xfd serve)).  A \
           bare port means 127.0.0.1.")

let serve_cmd =
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Port to listen on (default 0 picks an ephemeral port; the bound port is \
             printed on stderr and written to $(b,--port-file)).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Detection worker threads (default 2).")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bound on queued (not yet running) jobs; a full queue answers 429 with \
             $(b,Retry-After) (default 64).")
  in
  let quota =
    Arg.(
      value & opt float 0.0
      & info [ "quota" ] ~docv:"RATE"
          ~doc:
            "Per-client submission quota in jobs/second (token bucket; see \
             $(b,--quota-burst)).  Over-quota submissions answer 429 with \
             $(b,Retry-After).  0 disables (the default).")
  in
  let quota_burst =
    Arg.(
      value & opt int 8
      & info [ "quota-burst" ] ~docv:"N" ~doc:"Token-bucket burst per client (default 8).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Serve the $(b,.xfdprog) files under $(docv) at $(b,/v1/corpus).")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port to $(docv) once listening — the race-free way for \
             scripts to find an ephemeral port.")
  in
  let retain =
    Arg.(
      value & opt int 4096
      & info [ "retain" ] ~docv:"N"
          ~doc:"Finished jobs kept queryable over $(b,/v1/jobs) (default 4096).")
  in
  let action port host workers queue_cap quota quota_burst corpus port_file retain =
    let config =
      {
        Xfd_serve.Serve.default_config with
        port;
        host;
        workers;
        queue_cap;
        quota_rate = quota;
        quota_burst;
        corpus_dir = corpus;
        retain;
      }
    in
    let t = Xfd_serve.Serve.start config in
    let bound = Xfd_serve.Serve.port t in
    Format.eprintf "serve: listening on http://%s:%d/ (POST /v1/jobs; %d workers)@." host
      bound workers;
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (string_of_int bound);
        output_char oc '\n';
        close_out oc)
      port_file;
    let stop_requested = Atomic.make false in
    let on_signal _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    while not (Atomic.get stop_requested) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Format.eprintf "serve: draining (completing accepted jobs)...@.";
    Xfd_serve.Serve.stop ~drain:true t;
    Format.eprintf "serve: stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on detection service: submit jobs with $(b,xfd submit), poll \
          with $(b,xfd await) or plain HTTP.  SIGTERM/SIGINT drain gracefully: every \
          accepted job completes before exit.")
    Term.(
      const action $ port $ host $ workers $ queue_cap $ quota $ quota_burst $ corpus
      $ port_file $ retain)

let jstr_of key j =
  match Xfd_util.Json.member key j with Some (Xfd_util.Json.Str s) -> Some s | _ -> None

let fetch_report ~host ~port ~id file =
  match Xfd_pulse.Httpc.get ~host ~port ("/v1/jobs/" ^ id ^ "/report") with
  | Ok (200, body) ->
    let oc = open_out file in
    output_string oc body;
    close_out oc;
    Format.eprintf "report written to %s@." file;
    true
  | Ok (status, _) ->
    Printf.eprintf "report fetch failed: HTTP %d\n" status;
    false
  | Error e ->
    Printf.eprintf "report fetch failed: %s\n" e;
    false

(* Poll one job to completion.  Exit codes: 0 done, 1 failed, 2 transport
   error or timeout. *)
let await_job ~host ~port ~id ~timeout ~interval ~json ~report_out =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    match Xfd_pulse.Httpc.get ~host ~port ("/v1/jobs/" ^ id) with
    | Error e ->
      Printf.eprintf "await: %s\n" e;
      2
    | Ok (200, body) -> (
      match Xfd_util.Json.of_string body with
      | Error e ->
        Printf.eprintf "await: bad status JSON: %s\n" e;
        2
      | Ok j -> (
        match jstr_of "state" j with
        | Some (("done" | "failed") as state) ->
          if json then print_endline (Xfd_util.Json.to_string_pretty j)
          else begin
            match state with
            | "done" ->
              let result = Xfd_util.Json.member "result" j in
              let fp =
                Option.bind result (jstr_of "fingerprint")
                |> Option.value ~default:"?"
              in
              let bugs =
                match Option.bind result (Xfd_util.Json.member "unique_bugs") with
                | Some (Xfd_util.Json.Arr l) -> List.length l
                | _ -> 0
              in
              Printf.printf "%s done  bugs=%d  fingerprint=%s\n" id bugs fp
            | _ ->
              Printf.printf "%s failed: %s\n" id
                (Option.value (jstr_of "error" j) ~default:"unknown error")
          end;
          let report_ok =
            match report_out with
            | Some file when state = "done" -> fetch_report ~host ~port ~id file
            | _ -> true
          in
          if state = "done" then if report_ok then 0 else 2 else 1
        | _ ->
          if Unix.gettimeofday () > deadline then begin
            Printf.eprintf "await: timed out after %.1fs (job %s still %s)\n" timeout id
              (Option.value (jstr_of "state" j) ~default:"unknown");
            2
          end
          else begin
            Unix.sleepf interval;
            poll ()
          end))
    | Ok (status, body) ->
      Printf.eprintf "await: HTTP %d: %s\n" status (String.trim body);
      2
  in
  poll ()

let await_flags =
  let timeout =
    Arg.(
      value & opt float 300.0
      & info [ "timeout" ] ~docv:"SECS" ~doc:"Give up waiting after $(docv) (default 300).")
  in
  let interval =
    Arg.(
      value & opt float 0.1
      & info [ "interval" ] ~docv:"SECS" ~doc:"Polling interval (default 0.1).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the final job status as JSON.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-out" ] ~docv:"FILE"
          ~doc:"Fetch the forensics report once done and write it to $(docv).")
  in
  Term.(
    const (fun timeout interval json report_out -> (timeout, interval, json, report_out))
    $ timeout $ interval $ json $ report_out)

let submit_cmd =
  let program_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"FILE"
          ~doc:"Submit a $(b,.xfdprog) program file instead of a named workload.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("incremental", "incremental"); ("fresh", "fresh") ]) "incremental"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Detection engine for this job: $(b,incremental) (prefix-sharing, the \
             default) or $(b,fresh) (from-zero replay oracle).  Verdicts are \
             byte-identical either way.")
  in
  let client =
    Arg.(
      value & opt string ""
      & info [ "client" ] ~docv:"NAME"
          ~doc:"Client identity for quota accounting (sent as $(b,x-client)).")
  in
  let await = Arg.(value & flag & info [ "await" ] ~doc:"Wait for the verdict.") in
  let action connect w program_file engine client await (timeout, interval, json, report_out) =
    let host, port = endpoint connect in
    let fields =
      match (w.name, program_file) with
      | Some name, None ->
        [
          ("kind", Xfd_util.Json.Str "workload");
          ("workload", Xfd_util.Json.Str name);
          ("init", Xfd_util.Json.Int (Option.value w.init ~default:0));
          ("test", Xfd_util.Json.Int (Option.value w.test ~default:1));
        ]
        @ (match w.patch with Some p -> [ ("patch", Xfd_util.Json.Str p) ] | None -> [])
      | None, Some file ->
        let text = In_channel.with_open_bin file In_channel.input_all in
        [ ("kind", Xfd_util.Json.Str "xfdprog"); ("program", Xfd_util.Json.Str text) ]
      | _ -> usage "submit: need exactly one of --workload or --program"
    in
    let body =
      Xfd_util.Json.to_string
        (Xfd_util.Json.Obj (fields @ [ ("engine", Xfd_util.Json.Str engine) ]))
    in
    let headers = if client = "" then [] else [ ("x-client", client) ] in
    let code =
      match Xfd_pulse.Httpc.post ~headers ~body ~host ~port "/v1/jobs" with
      | Error e ->
        Printf.eprintf "submit: %s\n" e;
        2
      | Ok (202, _, resp) -> (
        match Result.bind (Xfd_util.Json.of_string resp) (fun j ->
                  Option.to_result ~none:"no id in response" (jstr_of "id" j))
        with
        | Error e ->
          Printf.eprintf "submit: bad response: %s\n" e;
          2
        | Ok id ->
          if await || report_out <> None then
            await_job ~host ~port ~id ~timeout ~interval ~json ~report_out
          else begin
            Printf.printf "%s accepted (poll with: xfd await --connect %s --job %s)\n" id
              connect id;
            0
          end)
      | Ok (status, headers, resp) ->
        let retry =
          match List.assoc_opt "retry-after" headers with
          | Some s -> Printf.sprintf " (retry after %ss)" s
          | None -> ""
        in
        Printf.eprintf "submit: HTTP %d%s: %s\n" status retry (String.trim resp);
        1
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one detection job to a running $(b,xfd serve); optionally wait for the \
          verdict and fetch the forensics report.")
    Term.(
      const action $ connect_arg $ workload_term $ program_file $ engine $ client $ await
      $ await_flags)

let await_cmd =
  let job =
    Arg.(
      required
      & opt (some string) None
      & info [ "job" ] ~docv:"ID" ~doc:"Job id returned by $(b,xfd submit).")
  in
  let action connect job (timeout, interval, json, report_out) =
    let host, port = endpoint connect in
    let code = await_job ~host ~port ~id:job ~timeout ~interval ~json ~report_out in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "await"
       ~doc:"Wait for a submitted job to finish and print (or fetch) its verdict.")
    Term.(const action $ connect_arg $ job $ await_flags)

let () =
  let doc = "XFDetector (OCaml reproduction): cross-failure bug detection for PM programs" in
  let info = Cmd.info "xfd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            list_cmd;
            newbugs_cmd;
            table5_cmd;
            lint_cmd;
            trace_cmd;
            fuzz_cmd;
            top_cmd;
            serve_cmd;
            submit_cmd;
            await_cmd;
          ]))
