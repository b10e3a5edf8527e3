module Ctx = Xfd_sim.Ctx
module Device = Xfd_mem.Pm_device
module Trace = Xfd_trace.Trace
module Obs = Xfd_obs.Obs
module Flight = Xfd_flight.Flight

type program = {
  name : string;
  setup : Ctx.t -> unit;
  pre : Ctx.t -> unit;
  post : Ctx.t -> unit;
}

type progress = { completed : int; total : int }

type timings = {
  pre_exec : float;
  post_exec : float;
  pre_replay : float;
  post_replay : float;
  snapshotting : float;
}

type outcome = {
  program : string;
  failure_points : int;
  reports : Report.failure_report list;
  unique_bugs : Report.bug list;
  pre_events : int;
  post_events : int;
  timings : timings;
  spans : Obs.Span.record list;
  coverage : Xfd_forensics.Coverage.t;
}

(* A failure point is (arena index, crash image, delta journal):
   [trace_pos] names the prefix of the flat event arena, [img] is the crash
   image captured when the point fired, and the per-point shadow divergence
   is journaled inside the detector.  [img_id] is the image's slot in the
   run's cleanup registry (released exactly once, even when the run aborts
   before consuming it). *)
type snapshot = { index : int; trace_pos : int; img : Xfd_mem.Image.t; img_id : int }

let c_runs = Obs.Counter.make "engine.runs"
let g_peak_image = Obs.Gauge.make "engine.peak_image_bytes"

(* Prefix sharing accounting.  [engine.pre_replay_events] counts pre-failure
   events actually replayed into a shadow; [engine.prefix_reuse_events]
   counts the events each failure point inherited from the canonical prefix
   instead of re-replaying (what `Fresh` mode would have replayed again).
   The CI perf gate checks incremental pre-replay stays a small fraction of
   fresh mode's. *)
let c_pre_replay = Obs.Counter.make "engine.pre_replay_events"
let c_prefix_reuse = Obs.Counter.make "engine.prefix_reuse_events"
let c_fp_fired = Obs.Counter.make "engine.failure_points.fired"
let c_fp_elided = Obs.Counter.make "engine.failure_points.elided"
let c_bug_post_error = Obs.Counter.make "bugs.post_failure_error"
let c_unique_bugs = Obs.Counter.make "engine.unique_bugs"
let h_pre_events = Obs.Histogram.make "engine.pre_trace_events"
let h_post_events = Obs.Histogram.make "engine.post_trace_events_per_run"

(* Helper domains the process-wide post-run pool has spawned: at most
   [Domain.recommended_domain_count () - 1], however many detects ran. *)
let g_pool_domains = Obs.Gauge.make "engine.pool_domains"

(* Span names of the detection pipeline's phases.  [timings] is *derived*
   from these spans (see [timings_of_spans]), so the Figure 12 breakdown is
   span aggregation — there is no second, hand-rolled timing path that
   could drift. *)
let sp_detect = "detect"
let sp_pre_exec = "pre_exec"
let sp_snapshot = "snapshot"
let sp_post_exec = "post_exec"
let sp_post_run = "post_run"
let sp_pre_replay = "pre_replay"
let sp_post_replay = "post_replay"

(* Total seconds of the spans in [spans] named [name]. *)
let span_total name spans =
  List.fold_left
    (fun acc (r : Obs.Span.record) -> if String.equal r.Obs.Span.name name then acc +. r.Obs.Span.dur else acc)
    0.0 spans

let timings_of_spans spans =
  let total name = span_total name spans in
  let snapshotting = total sp_snapshot in
  {
    (* Snapshots are taken inside the pre-failure execution (the failure-
       point hook fires mid-[pre]), so their cost is carved out of the
       enclosing span, as the legacy accumulator did. *)
    pre_exec = Float.max 0.0 (total sp_pre_exec -. snapshotting);
    post_exec = total sp_post_exec;
    pre_replay = total sp_pre_replay;
    post_replay = total sp_post_replay;
    snapshotting;
  }

(* Exceptions that indicate a broken harness or an exhausted runtime rather
   than a finding about the program under test: these abort detection and
   propagate (from pool helpers too, via the per-item capture) instead of
   being recorded as [Post_failure_error]. *)
let fatal = function
  | Assert_failure _ | Out_of_memory | Stack_overflow -> true
  | _ -> false

(* Run [post] on [dev], recording into [trace] (empty on entry). *)
let run_post ~config ~dev ~post ~trace =
  let ctx =
    Ctx.create ~trust_library:config.Config.trust_library ~stage:Ctx.Post_failure ~dev
      ~trace ()
  in
  match post ctx with
  | () -> None
  | exception Ctx.Detection_complete -> None
  | exception e when not (fatal e) -> Some (Printexc.to_string e)

(* The full Figure 7 pipeline.  With [only = Some k] every failure point is
   numbered and elided exactly as in a full run, but only the point with
   ordinal [k] is captured and post-executed — the single-failure-point
   oracle entry behind [detect_at], used by the fuzzer's shrinker and corpus
   replay to re-check one verdict cheaply. *)
let detect_gen ?only ?on_progress ?(config = Config.default) program =
  Config.validate config;
  Obs.Counter.incr c_runs;
  Xfd_mem.Image.reset_peak ();
  let run = Flight.begin_run ~program:program.name in
  let cov_mark = Xfd_forensics.Coverage.mark () in
  (* Progress is observation-only: the callback sees counts, never state,
     and anything it raises is swallowed — it cannot perturb detection.
     With [post_jobs > 1] it is invoked from whichever pool domain
     finished the run, so callers must be domain-safe. *)
  let notify_progress completed total =
    match on_progress with
    | None -> ()
    | Some f -> ( try f { completed; total } with _ -> ())
  in
  (* Cleanup registry: every resource the pipeline owns (devices, captured
     crash images, detector shadow pages) is registered here and disposed
     exactly once — on the normal path at its usual point, or by
     [dispose_all] when the run aborts.  Pool helpers release through the
     same registry, so the mutex also orders racing disposals. *)
  let cleanup_mu = Mutex.create () in
  let cleanups : (int, unit -> unit) Hashtbl.t = Hashtbl.create 32 in
  let cleanup_next = ref 0 in
  let locked f =
    Mutex.lock cleanup_mu;
    let r = try f () with e -> Mutex.unlock cleanup_mu; raise e in
    Mutex.unlock cleanup_mu;
    r
  in
  let track release =
    locked (fun () ->
        incr cleanup_next;
        let id = !cleanup_next in
        Hashtbl.replace cleanups id release;
        id)
  in
  let dispose id =
    match
      locked (fun () ->
          match Hashtbl.find_opt cleanups id with
          | Some f ->
            Hashtbl.remove cleanups id;
            Some f
          | None -> None)
    with
    | Some f -> f ()
    | None -> ()
  in
  let dispose_all () =
    let fs = locked (fun () ->
        let fs = Hashtbl.fold (fun _ f acc -> f :: acc) cleanups [] in
        Hashtbl.reset cleanups;
        fs)
    in
    List.iter (fun f -> try f () with _ -> ()) fs
  in
  (* Every span below is opened under this detect's root scope [sc], so
     [spans] holds exactly this detect's spans, whatever else runs at
     the same time. *)
  let (reports, unique_bugs, n_failure_points, pre_events, post_events), spans =
    try
    Obs.Span.root ~name:sp_detect
      ~meta:[ ("program", Xfd_util.Json.Str program.name) ]
      (fun sc ->
        let dev = Device.create () in
        let dev_cleanup = track (fun () -> Device.release dev) in
        let trace = Trace.create () in
        let snapshots = ref [] and fired = ref 0 in
        let last_ops = ref 0 in
        let crash_mode =
          match config.Config.crash_mode with `Full -> Device.Full | `Strict -> Device.Strict
        in
        (* The crash image of the current trace position, captured as the
           failure point fires: one CoW chunk-table copy, no eager byte
           copy.  It is the copy of the PM image a recovery runs on (Fig.
           7); a crash image depends only on the device state at this
           instant, so nothing else of the device is kept.  [fired] counts
           every failure point a full run would capture, so ordinals are
           stable whether or not [only] filters the actual captures.
           [pre] is the pre_exec span the hook fires inside. *)
        let record_snapshot pre =
          (match only with
          | Some k when k <> !fired -> ()
          | Some _ | None ->
            Obs.Span.child pre ~name:sp_snapshot (fun _ ->
                let img = Device.capture dev crash_mode in
                snapshots :=
                  {
                    index = !fired;
                    trace_pos = Trace.length trace;
                    img;
                    img_id = track (fun () -> Xfd_mem.Image.release img);
                  }
                  :: !snapshots);
            Flight.record ~level:Flight.Debug ~run "snapshot.recorded"
              [
                ("failure_point", Xfd_util.Json.Int !fired);
                ("trace_pos", Xfd_util.Json.Int (Trace.length trace));
              ]);
          Flight.record ~level:Flight.Debug ~run "fp.scheduled"
            [ ("failure_point", Xfd_util.Json.Int !fired) ];
          incr fired;
          Obs.Counter.incr c_fp_fired
        in
        let take_snapshot pre ctx =
          if
            !fired < config.Config.max_failure_points
            && Ctx.update_ops ctx > !last_ops
          then begin
            last_ops := Ctx.update_ops ctx;
            record_snapshot pre
          end
          else begin
            Flight.record ~level:Flight.Debug ~run "snapshot.dropped"
              [ ("after_failure_point", Xfd_util.Json.Int (!fired - 1)) ];
            Obs.Counter.incr c_fp_elided
          end
        in
        Obs.Span.child sc ~name:sp_pre_exec (fun pre ->
            Xfd_sim.Faults.reset config.Config.faults;
            let ctx =
              Ctx.create ~faults:config.Config.faults ~strategy:config.Config.strategy
                ~trust_library:config.Config.trust_library ~on_failure_point:(take_snapshot pre)
                ~stage:Ctx.Pre_failure ~dev ~trace ()
            in
            program.setup ctx;
            (match program.pre ctx with () -> () | exception Ctx.Detection_complete -> ());
            (* One terminal failure point: the state in which the pre-failure
               stage ran to completion must recover cleanly too. *)
            if config.Config.inject_terminal_fp && Ctx.update_ops ctx > !last_ops then
              record_snapshot pre);
        let snapshots = List.rev !snapshots in
        let commit_at =
          match config.Config.crash_mode with `Full -> `Write | `Strict -> `Persist
        in
        let make_detector () =
          let d =
            Detector.create ~check_perf:config.Config.check_perf ~commit_at
              ~forensics:config.Config.forensics ~domain:config.Config.domain ()
          in
          (d, track (fun () -> Detector.release d))
        in
        let detector, detector_cleanup = make_detector () in
        let pre_pos = ref 0 in
        let post_events = ref 0 in
        (* One post-failure execution per failure point.  The executions are
           independent (each runs on its own copy of the PM image).  On the
           streamed path (one job) each runs when the replay loop below
           reaches its failure point, recording into one post trace that
           is emptied before each run, so a detect keeps one post trace
           alive instead of one per point.  With post_jobs > 1 they run up
           front, each into its own trace, claimed in turn by the caller
           and up to post_jobs - 1 helpers of the process-wide domain pool
           — the parallelisation the paper leaves as future work.  Trace
           replay and checking stay sequential either way: the backend's
           shadow forks off the incrementally-advanced pre-failure state. *)
        let run_one post_exec s ~trace =
          Flight.record ~level:Flight.Debug ~run "fp.started"
            [ ("failure_point", Xfd_util.Json.Int s.index) ];
          Obs.Span.child post_exec ~name:sp_post_run
            ~meta:[ ("failure_point", Xfd_util.Json.Int s.index) ]
            (fun _ ->
              (* Boot this failure point's image-only device from the crash
                 image captured when the point fired, then drop the capture:
                 the post device's first write to a chunk still shared with
                 the live pre-failure device takes its private copy, and
                 shared chunks are immutable, so pool helpers boot
                 race-free.  A post run injects no failure points, so the
                 device needs no persistence tracking. *)
              let post_dev = Device.boot_image_only s.img in
              dispose s.img_id;
              let post_id = track (fun () -> Device.release post_dev) in
              (* A fatal post-failure exception propagates out of the
                 run; the registry still frees this run's device. *)
              Fun.protect
                ~finally:(fun () -> dispose post_id)
                (fun () -> run_post ~config ~dev:post_dev ~post:program.post ~trace))
        in
        let n = List.length snapshots in
        let jobs = max 1 (min config.Config.post_jobs n) in
        let streamed = jobs = 1 in
        let progress_done = Atomic.make 0 in
        let run_one post_exec s ~trace =
          let r = run_one post_exec s ~trace in
          notify_progress (1 + Atomic.fetch_and_add progress_done 1) n;
          r
        in
        notify_progress 0 n;
        let batch =
          if streamed then [||]
          else
            Obs.Span.child sc ~name:sp_post_exec (fun post_exec ->
                let input = Array.of_list snapshots in
                let output = Array.make n None in
                let next = Atomic.make 0 in
                (* No run of [work] stops mid-queue: each item's exception
                   is captured in its slot and the first one (in
                   failure-point order) re-raised after the batch. *)
                let work () =
                  let rec go () =
                    let k = Atomic.fetch_and_add next 1 in
                    if k < n then begin
                      output.(k) <-
                        Some
                          (try
                             let trace = Trace.create () in
                             Ok (trace, run_one post_exec input.(k) ~trace)
                           with e -> Error (e, Printexc.get_raw_backtrace ()));
                      go ()
                    end
                  in
                  go ()
                in
                let helpers = Xfd_util.Domain_pool.run ~helpers:(jobs - 1) work in
                Obs.Gauge.set g_pool_domains (float_of_int (Xfd_util.Domain_pool.domains ()));
                Flight.record ~level:Flight.Debug ~run "worker.join"
                  [
                    ("jobs", Xfd_util.Json.Int jobs);
                    ("helpers", Xfd_util.Json.Int helpers);
                    ("runs", Xfd_util.Json.Int n);
                  ];
                Array.map
                  (function
                    | Some (Ok r) -> r
                    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
                    | None -> assert false)
                  output)
        in
        (* The streamed path's one post trace.  Nothing outlives a point's
           replay that could read it: provenance chains render the events
           they cite when the bug fires, and the fork is rewound. *)
        let post_trace = Trace.create () in
        let post_run_for i s =
          if streamed then begin
            Trace.clear post_trace;
            let exn =
              Obs.Span.child sc ~name:sp_post_exec (fun post_exec ->
                  run_one post_exec s ~trace:post_trace)
            in
            (post_trace, exn)
          end
          else batch.(i)
        in
        (* The prefix-sharing scheduler.  `Incremental advances the single
           canonical shadow to each failure point's arena index — O(delta)
           per point — and forks a journaled divergence for the post
           replay.  `Fresh is the quadratic oracle: a brand-new detector
           replays events [0 .. pos) at every point, so verdicts can be
           compared against recomputed-from-scratch state. *)
        let pre_replay_for s =
          let fp_meta = [ ("failure_point", Xfd_util.Json.Int s.index) ] in
          match config.Config.engine with
          | `Incremental ->
            Obs.Span.child sc ~name:sp_pre_replay ~meta:fp_meta (fun _ ->
                Obs.Counter.add c_prefix_reuse !pre_pos;
                Obs.Counter.add c_pre_replay (max 0 (s.trace_pos - !pre_pos));
                Detector.replay detector trace ~from:!pre_pos ~upto:s.trace_pos;
                pre_pos := s.trace_pos);
            (detector, None)
          | `Fresh ->
            let det, cleanup = make_detector () in
            Obs.Span.child sc ~name:sp_pre_replay ~meta:fp_meta (fun _ ->
                Obs.Counter.add c_pre_replay s.trace_pos;
                Detector.replay det trace ~from:0 ~upto:s.trace_pos);
            (det, Some cleanup)
        in
        let reports =
          List.mapi
            (fun i s ->
              let post_trace, post_exn = post_run_for i s in
              let fp_meta = [ ("failure_point", Xfd_util.Json.Int s.index) ] in
              let det, det_cleanup = pre_replay_for s in
              post_events := !post_events + Trace.length post_trace;
              Obs.Histogram.observe h_post_events (Trace.length post_trace);
              let fork_bugs =
                Obs.Span.child sc ~name:sp_post_replay ~meta:fp_meta (fun _ ->
                    let fork = Detector.fork_for_post det in
                    Detector.replay fork post_trace ~from:0
                      ~upto:(Trace.length post_trace);
                    let bugs = Detector.bugs fork in
                    Detector.rewind fork;
                    bugs)
              in
              Option.iter dispose det_cleanup;
              let bugs =
                fork_bugs
                @
                match post_exn with
                | Some exn ->
                  Obs.Counter.incr c_bug_post_error;
                  [ Report.Post_failure_error { exn; failure_point = s.index } ]
                | None -> []
              in
              Flight.record ~level:Flight.Info ~run "fp.verdict"
                [
                  ("failure_point", Xfd_util.Json.Int s.index);
                  ("bugs", Xfd_util.Json.Int (List.length bugs));
                ];
              { Report.failure_point = s.index; trace_pos = s.trace_pos; bugs })
            snapshots
        in
        (* Pre-failure bugs (performance findings fire during pre replay):
           finish the canonical prefix, or rebuild it whole in oracle
           mode. *)
        let base_bugs =
          match config.Config.engine with
          | `Incremental ->
            Obs.Span.child sc ~name:sp_pre_replay (fun _ ->
                Obs.Counter.add c_prefix_reuse !pre_pos;
                Obs.Counter.add c_pre_replay (max 0 (Trace.length trace - !pre_pos));
                Detector.replay detector trace ~from:!pre_pos ~upto:(Trace.length trace));
            Detector.bugs detector
          | `Fresh ->
            let det, cleanup = make_detector () in
            Obs.Span.child sc ~name:sp_pre_replay (fun _ ->
                Obs.Counter.add c_pre_replay (Trace.length trace);
                Detector.replay det trace ~from:0 ~upto:(Trace.length trace));
            let bugs = Detector.bugs det in
            dispose cleanup;
            bugs
        in
        let dedup = Hashtbl.create 64 in
        let unique_bugs =
          List.concat_map (fun r -> r.Report.bugs) reports @ base_bugs
          |> List.filter (fun b ->
                 let key = Report.dedup_key b in
                 if Hashtbl.mem dedup key then false
                 else begin
                   Hashtbl.replace dedup key ();
                   true
                 end)
        in
        Obs.Counter.add c_unique_bugs (List.length unique_bugs);
        Obs.Histogram.observe h_pre_events (Trace.length trace);
        dispose dev_cleanup;
        dispose detector_cleanup;
        (reports, unique_bugs, List.length snapshots, Trace.length trace, !post_events))
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      (* Every still-registered resource — the live device, unconsumed
         crash images, the post devices of runs on pool helpers, detector
         shadow pages — is released before the abort propagates, so an
         aborted run leaks no chunk or page bytes. *)
      dispose_all ();
      Flight.record ~level:Flight.Warn ~run "run.abort"
        [ ("exn", Xfd_util.Json.Str (Printexc.to_string e)) ];
      Printexc.raise_with_backtrace e bt
  in
  Obs.Gauge.set g_peak_image (float_of_int (Xfd_mem.Image.peak_bytes ()));
  Flight.end_run ~run
    [
      ("program", Xfd_util.Json.Str program.name);
      ("failure_points", Xfd_util.Json.Int n_failure_points);
      ("unique_bugs", Xfd_util.Json.Int (List.length unique_bugs));
      ("pre_events", Xfd_util.Json.Int pre_events);
      ("post_events", Xfd_util.Json.Int post_events);
    ];
  {
    program = program.name;
    failure_points = n_failure_points;
    reports;
    unique_bugs;
    pre_events;
    post_events;
    timings = timings_of_spans spans;
    spans;
    coverage = Xfd_forensics.Coverage.since cov_mark;
  }

let detect ?config ?on_progress program = detect_gen ?config ?on_progress program

let detect_at ?config ~failure_point program =
  detect_gen ~only:failure_point ?config program

let wall_breakdown o =
  let t = o.timings in
  (t.pre_exec +. t.pre_replay +. t.snapshotting, t.post_exec +. t.post_replay)

let total_wall o =
  let pre, post = wall_breakdown o in
  pre +. post

let tally o =
  List.fold_left
    (fun (r, s, p, e) b ->
      if Report.is_race b then (r + 1, s, p, e)
      else if Report.is_semantic b then (r, s + 1, p, e)
      else if Report.is_perf b then (r, s, p + 1, e)
      else (r, s, p, e + 1))
    (0, 0, 0, 0) o.unique_bugs

(* Wall-time [f] through the span machinery (the engine's only clock), so
   the baselines need no timing path of their own. *)
let timed_span name f =
  let (), spans = Obs.Span.root ~name (fun _ -> f ()) in
  span_total name spans

(* The baselines' single pass: no failure injection, one Full crash after
   the pre-failure stage, and the post stage on an image-only device, as
   in [detect].  Device set-up and release stay outside the timed span. *)
let run_once ?(tracing = true) program =
  let dev = Device.create () in
  let trace = Trace.create () and post_trace = Trace.create () in
  let post_dev = ref None in
  let release () =
    Device.release dev;
    Option.iter Device.release !post_dev
  in
  let wall =
    Fun.protect ~finally:release (fun () ->
        let ctx = Ctx.create ~tracing ~stage:Ctx.Pre_failure ~dev ~trace () in
        timed_span "run_once" (fun () ->
            program.setup ctx;
            (match program.pre ctx with () -> () | exception Ctx.Detection_complete -> ());
            let img = Device.crash dev Device.Full in
            let pdev = Device.boot_image_only img in
            Xfd_mem.Image.release img;
            post_dev := Some pdev;
            let post_ctx =
              Ctx.create ~tracing ~stage:Ctx.Post_failure ~dev:pdev ~trace:post_trace ()
            in
            match program.post post_ctx with
            | () -> ()
            | exception Ctx.Detection_complete -> ()))
  in
  (wall, trace, post_trace)

let run_traced program =
  let wall, _, _ = run_once program in
  wall

let run_original program =
  let wall, _, _ = run_once ~tracing:false program in
  wall

let pp_outcome ppf o =
  let races, semantics, perf, errors = tally o in
  Format.fprintf ppf "== %s: %d failure point(s), %d unique finding(s) ==@." o.program
    o.failure_points (List.length o.unique_bugs);
  Format.fprintf ppf "   races=%d semantic=%d performance=%d post-failure-errors=%d@."
    races semantics perf errors;
  List.iter
    (fun b -> Format.fprintf ppf "   %a@." Report.pp_bug b)
    o.unique_bugs

let outcome_to_json o =
  let open Xfd_util.Json in
  let races, semantics, perf, errors = tally o in
  let pre, post = wall_breakdown o in
  Obj
    [
      ("program", Str o.program);
      ("failure_points", Int o.failure_points);
      ( "summary",
        Obj
          [
            ("races", Int races);
            ("semantic_bugs", Int semantics);
            ("performance_bugs", Int perf);
            ("post_failure_errors", Int errors);
          ] );
      ("unique_bugs", Arr (List.map Report.bug_to_json o.unique_bugs));
      ("reports", Arr (List.map Report.failure_report_to_json o.reports));
      ( "stats",
        Obj
          [
            ("pre_events", Int o.pre_events);
            ("post_events", Int o.post_events);
            ("pre_wall_seconds", Float pre);
            ("post_wall_seconds", Float post);
          ] );
      ( "timings",
        Obj
          [
            ("pre_exec_s", Float o.timings.pre_exec);
            ("post_exec_s", Float o.timings.post_exec);
            ("pre_replay_s", Float o.timings.pre_replay);
            ("post_replay_s", Float o.timings.post_replay);
            ("snapshotting_s", Float o.timings.snapshotting);
          ] );
      ( "spans",
        Obj
          (List.map
             (fun (name, (count, total)) ->
               (name, Obj [ ("count", Int count); ("total_s", Float total) ]))
             (Obs.Span.aggregate o.spans)) );
      ("coverage", Xfd_forensics.Coverage.to_json o.coverage);
    ]

let report_envelope ?job report =
  let open Xfd_util.Json in
  Obj
    ([ ("type", Str "xfd_report"); ("schema_version", Int 1) ]
    @ Option.to_list (Option.map (fun j -> ("job", j)) job)
    @ [ ("report", report) ])
