(* Quickstart: detect the paper's Figure 2 bug in three lines, then show
   that the fixed program comes back clean.

     dune exec examples/quickstart.exe

   The workload is a persistent array updated under a backup/valid-flag
   protocol.  The buggy variant writes the wrong values to the flag, so
   recovery either skips a rollback it needed (cross-failure race) or rolls
   back from a stale backup (cross-failure semantic bug). *)

(* Optional file outputs, so CI can archive what a run produced:
     quickstart.exe [--metrics-out FILE.jsonl] [--report-out FILE.json]
                    [--trace-out FILE.json]
   --trace-out exports every span of the session as Chrome trace-event
   JSON — drop it on ui.perfetto.dev to see the pipeline timeline. *)
let file_arg flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let () =
  print_endline "XFDetector quickstart: the paper's Figure 2 example";
  print_endline "---------------------------------------------------";

  let sink = Option.map Xfd_obs.Obs.Sink.to_file (file_arg "--metrics-out") in
  Option.iter Xfd_obs.Obs.Sink.install sink;
  let collector =
    Option.map
      (fun path -> (path, Xfd_flight.Perfetto.Collector.start ()))
      (file_arg "--trace-out")
  in

  (* 1. Build the program under test (buggy variant). *)
  let buggy = Xfd_workloads.Array_update.program ~size:1 () in

  (* 2. Run cross-failure detection: inject a failure before every ordering
        point, run recovery + resumption from each, check all reads.
        Forensics on: every bug will carry its provenance chain. *)
  let config = { Xfd.Config.default with forensics = true } in
  let outcome = Xfd.Engine.detect ~config buggy in

  (* 3. Read the report. *)
  Format.printf "%a@." Xfd.Engine.pp_outcome outcome;

  (* The fixed variant of the same code is clean. *)
  let fixed = Xfd_workloads.Array_update.program ~size:1 ~correct_valid:true () in
  Format.printf "%a@." Xfd.Engine.pp_outcome (Xfd.Engine.detect fixed);

  let races, semantics, _, _ = Xfd.Engine.tally outcome in
  if races >= 1 && semantics >= 1 then
    print_endline "OK: the buggy variant shows both a cross-failure race and a semantic bug."
  else begin
    print_endline "UNEXPECTED: detection did not reproduce the Figure 2 bugs.";
    exit 1
  end;

  (* 4. Forensics: ask any bug why it was reported.  The chain names the
        pre-failure write, the writeback/fence that did (not) persist it,
        the commit writes framing the Eq. 3 window for semantic bugs, and
        the post-failure read — with timeline excerpts around each. *)
  print_endline "Forensics: why each bug was reported";
  print_endline "------------------------------------";
  List.iter
    (fun b -> Format.printf "%a" Xfd.Report.pp_bug_explained b)
    outcome.Xfd.Engine.unique_bugs;
  Format.printf "@.%a" Xfd_forensics.Coverage.pp outcome.Xfd.Engine.coverage;

  (* 4b. Static analysis: the linter analyses one traced execution with
         zero post-failure replays — eight rules over the per-byte
         persistence FSM.  Figure 2 is the instructive case: the bug
         writes the *wrong values* through a perfectly persisted flag
         protocol, so the linter (like PMTest) finds nothing — which is
         exactly why lint findings only prioritize failure points and
         never prune them (DESIGN.md, decision 13). *)
  print_endline "Static lint: the same program, zero replays";
  print_endline "-------------------------------------------";
  let lint = Xfd_lint.Lint.check_prog (Xfd_workloads.Array_update.program ~size:1 ()) in
  Format.printf "%a@." Xfd_lint.Lint.pp_report lint;
  if Xfd_lint.Lint.clean lint then
    print_endline
      "lint-clean, yet dynamically buggy: a semantic bug leaves no static \
       ordering evidence.";

  (* Optional machine-readable report for CI artifacts. *)
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
      Printf.printf "report written to %s\n" file)
    (file_arg "--report-out");

  (* 5. Telemetry: everything the two runs did — events traced, snapshots
        taken, failure points fired vs elided, bugs by class, time per
        phase — was recorded by the observability layer as it went. *)
  Format.printf "@.%a@." Xfd_obs.Obs.pp_summary ();
  Option.iter
    (fun (path, c) ->
      let n = Xfd_flight.Perfetto.Collector.stop_to_file c path in
      Printf.printf "trace written to %s (%d slices)\n" path n)
    collector;
  Option.iter
    (fun s ->
      Xfd_obs.Obs.write_summary ();
      Xfd_obs.Obs.Sink.uninstall s)
    sink
