(* The xfd command-line tool — the artifact's run.sh analogue.

     xfd run --workload btree --init 5 --test 5 [--patch skip-tx-add=0,2]
     xfd lint --workload btree [--patch ...] [--triage]
     xfd list
     xfd newbugs
     xfd table5 [--workload btree]
     xfd serve --port 8080 --workers 4 [--quota 2 --corpus corpus/]
     xfd submit --connect 8080 -w btree --patch skip-tx-add=0 --await
     xfd await --connect 8080 --job j1 --report-out report.json

   [run] executes one workload under full cross-failure detection and
   prints the report; [--patch] seeds mechanical bugs like the artifact's
   patch files.  [serve] keeps the same pipeline resident behind an HTTP
   job protocol; [submit]/[await] are its client. *)

open Cmdliner

(* "skip-tx-add=0,2;dup-flush=1" — one parser shared with the detection
   service, so a patch that works locally works over the wire too. *)
let parse_patch spec =
  match Xfd_serve.Job.faults_of_spec spec with Ok f -> f | Error e -> failwith e

let workload_names =
  List.map
    (fun e -> String.lowercase_ascii e.Xfd_experiments.Workload_set.name)
    Xfd_experiments.Workload_set.extended

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

(* ---- pulse: live exposition, time-series recording, dashboard ----

   One option bundle shared by [run] and [fuzz].  Any of the flags
   switches the pulse machinery on: a Tsdb sampler thread over the Obs
   registry, optionally an HTTP exposition server (--pulse-port), an
   in-process dashboard on stderr (--pulse, TTY only), and an end-of-run
   JSONL dump of the sampled series (--pulse-out).  All of it is
   observation-only: the verdict is byte-identical with or without. *)

type pulse_opts = {
  pulse_live : bool;
  pulse_port : int option;
  pulse_interval : float;
  pulse_linger : float;
  pulse_out : string option;
}

let pulse_term =
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
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "pulse-out" ] ~docv:"FILE"
          ~doc:
            "Write the sampled time series as JSONL to $(docv) at the end of the run \
             (one line per series).  Implies the time-series sampler.")
  in
  Term.(
    const (fun pulse_live pulse_port pulse_interval pulse_linger pulse_out ->
        { pulse_live; pulse_port; pulse_interval; pulse_linger; pulse_out })
    $ live $ port $ interval $ linger $ out)

(* Redraw-in-place renderer: moves the cursor back up over the previous
   frame.  Only used when stderr is a TTY. *)
let dash_local_renderer tsdb =
  let prev_lines = ref 0 in
  fun () ->
    let s = Xfd_pulse.Dash.render (Xfd_pulse.Dash.snap_local tsdb) in
    let lines = String.split_on_char '\n' s in
    let lines = match List.rev lines with "" :: rest -> List.rev rest | _ -> lines in
    let b = Buffer.create 256 in
    if !prev_lines > 0 then Buffer.add_string b (Printf.sprintf "\x1b[%dA" !prev_lines);
    List.iter
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_string b "\x1b[K\n")
      lines;
    prev_lines := List.length lines;
    prerr_string (Buffer.contents b);
    flush stderr

(* [with_pulse opts f] runs [f] with the pulse machinery (if any flag
   asked for it) started before and torn down after — including on
   exceptions.  [f] receives a progress callback to merge into the
   engine's [on_progress], and must return rather than [exit] so the
   teardown (pulse-out dump, server stop) always runs. *)
let with_pulse opts f =
  let enabled = opts.pulse_live || opts.pulse_port <> None || opts.pulse_out <> None in
  if not enabled then f ~pulse_progress:None
  else begin
    let tsdb = Xfd_pulse.Tsdb.create () in
    Xfd_pulse.Tsdb.start tsdb ~interval:opts.pulse_interval;
    let server =
      Option.map
        (fun port ->
          let s = Xfd_pulse.Pulse.start ~port ~tsdb () in
          Format.eprintf "pulse: serving http://127.0.0.1:%d/ (try /metrics, /health)@."
            (Xfd_pulse.Pulse.port s);
          s)
        opts.pulse_port
    in
    let live = opts.pulse_live && Unix.isatty Unix.stderr in
    let render = dash_local_renderer tsdb in
    let dash =
      if live then
        Some (Xfd_pulse.Ticker.start ~interval:(Float.max 0.2 opts.pulse_interval) render)
      else None
    in
    let pulse_progress (p : Xfd.Engine.progress) =
      Xfd_pulse.Pulse.note_progress ~completed:p.completed ~total:p.total
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Xfd_pulse.Ticker.stop dash;
        Xfd_pulse.Tsdb.sample tsdb;
        (* end-state sample *)
        if live then render ();
        if opts.pulse_linger > 0.0 then Unix.sleepf opts.pulse_linger;
        Xfd_pulse.Tsdb.stop tsdb;
        Option.iter Xfd_pulse.Pulse.stop server;
        Option.iter
          (fun file ->
            let n = Xfd_pulse.Tsdb.write_jsonl tsdb file in
            Format.eprintf "pulse series written to %s (%d series)@." file n)
          opts.pulse_out)
      (fun () -> f ~pulse_progress:(Some pulse_progress))
  end

(* Merge independent progress observers into one callback. *)
let merge_progress observers =
  match List.filter_map Fun.id observers with
  | [] -> None
  | fs -> Some (fun p -> List.iter (fun f -> f p) fs)

let run_cmd =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:(Printf.sprintf "Workload to test (%s)." (String.concat ", " workload_names)))
  in
  let init =
    Arg.(value & opt int 0 & info [ "init" ] ~docv:"N" ~doc:"Warm-up insertions before the RoI.")
  in
  let test =
    Arg.(value & opt int 1 & info [ "test" ] ~docv:"N" ~doc:"Insertions/queries inside the RoI.")
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
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Stream run telemetry as JSONL to $(docv): one record per pipeline span \
             plus a final summary record (counters, histograms, per-phase span \
             durations, and snapshot-footprint accounting: pm.snapshot_bytes, \
             pm.snapshot_shared_bytes, pm.cow_faults, engine.peak_image_bytes).")
  in
  let quiet_metrics =
    Arg.(
      value & flag
      & info [ "quiet-metrics" ] ~doc:"Do not print the human-readable telemetry summary.")
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
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Export the run's span tree as Chrome trace-event JSON to $(docv) — open it \
             in ui.perfetto.dev or chrome://tracing.  One track per domain, so with \
             $(b,post_jobs > 1) the parallel post-failure stage shows as overlapping \
             post_run slices.")
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
  let action workload init test patch naive untrusted oracle quiet json metrics_out
      quiet_metrics report_out explain fail_on_bug allow_perf lint_guided trace_out progress
      flight_out pulse_opts =
    let entry = Xfd_experiments.Workload_set.find workload in
    let faults = match patch with Some s -> parse_patch s | None -> Xfd_sim.Faults.none in
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
    let sink = Option.map Xfd_obs.Obs.Sink.to_file metrics_out in
    Option.iter Xfd_obs.Obs.Sink.install sink;
    if flight_out <> None then Xfd_flight.Flight.set_level Xfd_flight.Flight.Debug;
    let program = entry.Xfd_experiments.Workload_set.make ~init ~test in
    let code =
      with_pulse pulse_opts (fun ~pulse_progress ->
    let on_progress =
      merge_progress
        [ (if progress then Some (progress_renderer ()) else None); pulse_progress ]
    in
    let outcome =
      if lint_guided then begin
        let lint, outcome = Xfd_lint.Lint.detect_guided ~config ?on_progress program in
        if not (quiet || json) then Format.printf "%a@." Xfd_lint.Lint.pp_report lint;
        outcome
      end
      else Xfd.Engine.detect ~config ?on_progress program
    in
    Option.iter
      (fun file ->
        Xfd_flight.Perfetto.to_file ~process_name:outcome.Xfd.Engine.program file
          outcome.Xfd.Engine.spans;
        Format.eprintf "trace written to %s (%d spans)@." file
          (List.length outcome.Xfd.Engine.spans))
      trace_out;
    Option.iter
      (fun file ->
        let n = Xfd_flight.Flight.write_jsonl file in
        Format.eprintf "flight log written to %s (%d events)@." file n)
      flight_out;
    Option.iter
      (fun s ->
        Xfd_obs.Obs.write_summary ();
        Xfd_obs.Obs.Sink.uninstall s)
      sink;
    let r, s, p, e = Xfd.Engine.tally outcome in
    if json then
      print_endline (Xfd_util.Json.to_string_pretty (Xfd.Engine.outcome_to_json outcome))
    else if quiet then
      Printf.printf "%s: %d failure points, races=%d semantic=%d perf=%d errors=%d (%.1f ms)\n"
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
        let report =
          Xfd_util.Json.Obj
            [
              ("type", Xfd_util.Json.Str "xfd_report");
              ("schema_version", Xfd_util.Json.Int 1);
              ("report", Xfd.Engine.outcome_to_json outcome);
            ]
        in
        let oc = open_out file in
        output_string oc (Xfd_util.Json.to_string_pretty report);
        output_char oc '\n';
        close_out oc;
        Format.eprintf "report written to %s@." file)
      report_out;
    if not quiet_metrics then Format.eprintf "%a" Xfd_obs.Obs.pp_summary ();
    let failing = if allow_perf then r + s + e else r + s + p + e in
    if fail_on_bug && failing > 0 then 1 else 0)
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under cross-failure detection")
    Term.(
      const action $ workload $ init $ test $ patch $ naive $ untrusted $ oracle $ quiet
      $ json $ metrics_out $ quiet_metrics $ report_out $ explain $ fail_on_bug $ allow_perf
      $ lint_guided $ trace_out $ progress $ flight_out $ pulse_term)

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

let lint_cmd =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:(Printf.sprintf "Workload to lint (%s)." (String.concat ", " workload_names)))
  in
  let init =
    Arg.(value & opt int 0 & info [ "init" ] ~docv:"N" ~doc:"Warm-up insertions before the RoI.")
  in
  let test =
    Arg.(value & opt int 1 & info [ "test" ] ~docv:"N" ~doc:"Insertions/queries inside the RoI.")
  in
  let patch =
    Arg.(
      value
      & opt (some string) None
      & info [ "patch" ] ~docv:"SPEC"
          ~doc:"Seed mechanical bugs before linting (same syntax as $(b,run --patch)).")
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
  let action workload init test patch json triage triage_out expect domain diff_domains =
    let domain =
      match Xfd_trace.Domain_model.of_string domain with
      | Some d -> d
      | None ->
        Printf.eprintf "unknown persistence-domain model %S (want adr|eadr|cxl-gpf)\n"
          domain;
        exit 2
    in
    let entry =
      match
        List.find_opt
          (fun e ->
            String.lowercase_ascii e.Xfd_experiments.Workload_set.name
            = String.lowercase_ascii workload)
          Xfd_experiments.Workload_set.extended
      with
      | Some e -> e
      | None ->
        Printf.eprintf "unknown workload %S (want one of %s)\n" workload
          (String.concat ", " workload_names);
        exit 2
    in
    let faults =
      match patch with
      | None -> Xfd_sim.Faults.none
      | Some s -> (
        match Xfd_serve.Job.faults_of_spec s with
        | Ok f -> f
        | Error e ->
          Printf.eprintf "bad --patch: %s\n" e;
          exit 2)
    in
    let config = { Xfd.Config.default with faults; domain } in
    let program = entry.Xfd_experiments.Workload_set.make ~init ~test in
    let expected =
      match expect with
      | None -> []
      | Some s ->
        String.split_on_char ',' s
        |> List.filter (fun s -> s <> "")
        |> List.map (fun id ->
               match Xfd_lint.Lint.rule_of_id id with
               | Some _ -> id
               | None ->
                 Printf.eprintf "unknown rule id %S\n" id;
                 exit 2)
    in
    let do_triage = triage || triage_out <> None in
    let diff =
      if diff_domains then Some (Xfd_lint.Lint.diff_prog ~config ~baseline:domain program)
      else None
    in
    let report, tri =
      match diff with
      | Some d -> (List.assoc domain d.Xfd_lint.Lint.reports, None)
      | None ->
        if do_triage then
          let t = Xfd_lint.Lint.triage ~config program in
          (t.Xfd_lint.Lint.lint, Some t)
        else (Xfd_lint.Lint.check_prog ~config program, None)
    in
    (match diff with
    | Some d ->
      if json then
        print_endline (Xfd_util.Json.to_string_pretty (Xfd_lint.Lint.diff_to_json d))
      else Format.printf "%a@." Xfd_lint.Lint.pp_diff d
    | None ->
      if json then
        print_endline
          (Xfd_util.Json.to_string_pretty
             (match tri with
             | Some t -> Xfd_lint.Lint.triage_to_json t
             | None -> Xfd_lint.Lint.report_to_json report))
      else begin
        Format.printf "%a@." Xfd_lint.Lint.pp_report report;
        Option.iter (fun t -> Format.printf "%a@." Xfd_lint.Lint.pp_triage t) tri
      end);
    Option.iter
      (fun file ->
        let t = Option.get tri in
        let oc = open_out file in
        output_string oc
          (Xfd_util.Json.to_string_pretty (Xfd_lint.Lint.triage_to_json t));
        output_char oc '\n';
        close_out oc;
        Format.eprintf "triage written to %s@." file)
      triage_out;
    let fired =
      List.map
        (fun f -> Xfd_lint.Lint.rule_id f.Xfd_lint.Lint.rule)
        report.Xfd_lint.Lint.findings
    in
    (* Exit contract (shared with xfd_trace_tool lint): 0 = clean,
       1 = findings (or a missed expectation), 2 = usage/IO error.  With
       --expect the findings are the point, so meeting every expectation
       exits 0.  With --diff-domains "clean" means clean under every
       analysed model. *)
    let missing = List.filter (fun id -> not (List.mem id fired)) expected in
    if missing <> [] then begin
      Printf.eprintf "expected rule(s) did not fire: %s\n" (String.concat ", " missing);
      exit 1
    end;
    if expected = [] then
      match diff with
      | Some d -> if not (Xfd_lint.Lint.diff_clean d) then exit 1
      | None -> if not (Xfd_lint.Lint.clean report) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a workload's pre-failure trace for crash-consistency \
          rule violations, optionally under different persistence-domain models \
          ($(b,--domain), $(b,--diff-domains)) or cross-checked against the dynamic \
          detector. Exits 0 when clean, 1 on findings or a missed $(b,--expect), 2 \
          on usage errors.")
    Term.(
      const action $ workload $ init $ test $ patch $ json $ triage $ triage_out $ expect
      $ domain $ diff_domains)

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
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Stream run telemetry as JSONL to $(docv), including the fuzz.* counters \
             (programs, divergences, meta_failures, shrink_evals, repros).")
  in
  let quiet_metrics =
    Arg.(
      value & flag
      & info [ "quiet-metrics" ] ~doc:"Do not print the human-readable telemetry summary.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Export every span of the whole fuzz sweep as Chrome trace-event JSON to \
             $(docv) (collected from the telemetry stream — each engine run drains its \
             own span buffer).")
  in
  let action seed budget profile corpus max_repros shrink_budget replay quiet metrics_out
      quiet_metrics trace_out pulse_opts =
    let ok =
      with_pulse pulse_opts (fun ~pulse_progress ->
          (* A fuzz sweep has no single-run progress; the pulse sampler
             still captures the fuzz.* counters as they advance. *)
          ignore pulse_progress;
          let sink = Option.map Xfd_obs.Obs.Sink.to_file metrics_out in
          Option.iter Xfd_obs.Obs.Sink.install sink;
          let collector =
            Option.map (fun path -> (path, Xfd_flight.Perfetto.Collector.start ())) trace_out
          in
          let finish ok =
            Option.iter
              (fun (path, c) ->
                let n = Xfd_flight.Perfetto.Collector.stop_to_file c path in
                Format.eprintf "trace written to %s (%d slices)@." path n)
              collector;
            Option.iter
              (fun s ->
                Xfd_obs.Obs.write_summary ();
                Xfd_obs.Obs.Sink.uninstall s)
              sink;
            if not quiet_metrics then Format.eprintf "%a" Xfd_obs.Obs.pp_summary ();
            ok
          in
          match replay with
          | Some file -> (
            match Xfd_fuzz.Corpus.check file with
            | Ok () ->
              Printf.printf "%s: verdicts match\n" file;
              finish true
            | Error e ->
              Printf.printf "%s\n" e;
              finish false)
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
            finish (Xfd_fuzz.Fuzz.clean summary))
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
      $ quiet $ metrics_out $ quiet_metrics $ trace_out $ pulse_term)

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
    match Xfd_pulse.Httpc.parse_endpoint connect with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok (host, port) ->
      let count = if once then 1 else count in
      let tty = Unix.isatty Unix.stdout in
      let prev_lines = ref 0 in
      let show s =
        let lines = String.split_on_char '\n' s in
        let lines = match List.rev lines with "" :: r -> List.rev r | _ -> lines in
        let b = Buffer.create 256 in
        if tty && !prev_lines > 0 then
          Buffer.add_string b (Printf.sprintf "\x1b[%dA" !prev_lines);
        List.iter
          (fun l ->
            Buffer.add_string b l;
            if tty then Buffer.add_string b "\x1b[K";
            Buffer.add_char b '\n')
          lines;
        prev_lines := List.length lines;
        print_string (Buffer.contents b);
        flush stdout
      in
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
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:(Printf.sprintf "Workload to submit (%s)." (String.concat ", " workload_names)))
  in
  let init =
    Arg.(value & opt int 0 & info [ "init" ] ~docv:"N" ~doc:"Warm-up insertions before the RoI.")
  in
  let test =
    Arg.(value & opt int 1 & info [ "test" ] ~docv:"N" ~doc:"Insertions/queries inside the RoI.")
  in
  let patch =
    Arg.(
      value
      & opt (some string) None
      & info [ "patch" ] ~docv:"SPEC" ~doc:"Seed mechanical bugs (same syntax as $(b,run --patch)).")
  in
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
  let action connect workload init test patch program_file engine client await
      (timeout, interval, json, report_out) =
    match Xfd_pulse.Httpc.parse_endpoint connect with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok (host, port) ->
      let fields =
        match (workload, program_file) with
        | Some w, None ->
          [
            ("kind", Xfd_util.Json.Str "workload");
            ("workload", Xfd_util.Json.Str w);
            ("init", Xfd_util.Json.Int init);
            ("test", Xfd_util.Json.Int test);
          ]
          @ (match patch with Some p -> [ ("patch", Xfd_util.Json.Str p) ] | None -> [])
        | None, Some file ->
          let ic = open_in_bin file in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          [ ("kind", Xfd_util.Json.Str "xfdprog"); ("program", Xfd_util.Json.Str text) ]
        | _ ->
          prerr_endline "submit: need exactly one of --workload or --program";
          exit 2
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
      const action $ connect_arg $ workload $ init $ test $ patch $ program_file $ engine
      $ client $ await $ await_flags)

let await_cmd =
  let job =
    Arg.(
      required
      & opt (some string) None
      & info [ "job" ] ~docv:"ID" ~doc:"Job id returned by $(b,xfd submit).")
  in
  let action connect job (timeout, interval, json, report_out) =
    match Xfd_pulse.Httpc.parse_endpoint connect with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok (host, port) ->
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
            fuzz_cmd;
            top_cmd;
            serve_cmd;
            submit_cmd;
            await_cmd;
          ]))
