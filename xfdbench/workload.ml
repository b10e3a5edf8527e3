(* The six workloads and the code that measures them.

   Detection, lint and fuzz workloads are closed loops on one thread: the
   next call starts when the previous one returns.  A call is one call
   into a layer (one program detected, one program linted under every
   domain model, one fuzz batch); a round calls every drawn input once,
   in draw order.  The serve workloads drive a real [xfd_cli serve]
   daemon over loopback HTTP on an open-loop Poisson schedule.  Every
   verdict is checked against the goldens.

   A run first sets up [setup_reps] times (draw and build the inputs,
   start the daemon for serve, one warm-up round) and keeps the last
   set-up, then measures for [seconds].  Closed-loop times are also
   scaled to the nominal speed of the core they ran on ([Host]).  A
   traced run collects spans and counters over the whole window; its
   overhead is found by comparing it with an untraced run of its own
   (see [xfd_bench run --traced]). *)

module Json = Xfd_util.Json
module Obs = Xfd_obs.Obs
module Engine = Xfd.Engine
module Config = Xfd.Config
module Lint = Xfd_lint.Lint
module Fuzz = Xfd_fuzz.Fuzz
module Job = Xfd_serve.Job
module Httpc = Xfd_pulse.Httpc
module Domain_model = Xfd_trace.Domain_model
module Perfetto = Xfd_flight.Perfetto

let now = Unix.gettimeofday

type family =
  | Detect of Draw.prog list
  | Lint of Draw.prog list
  | Fuzz of Draw.batch list
  | Serve of { pool : Draw.job list; rate : float }

type t = {
  name : string;
  work : string;  (** what the throughput counts *)
  pool : string;  (** golden key; workloads drawing the same inputs share it *)
  draw : int -> family;
  exponent : float;  (** how its times grow with the host's slowdown ([Host.scale]) *)
}

(* Exponents, fitted on sets of ten seeded runs of each workload
   spanning calm and contended spells (README.md, "Host speed"): each is
   the one that left the least spread.  Detection and lint lose less to a
   busy neighbour than the kernel does; fuzzing less still (its M3 checks
   run on other domains, and generation is allocation-bound); served
   latency more, as queueing amplifies a slower run. *)
let engine_exponent = 0.55
let serve_exponent = 1.5

let all =
  [
    {
      name = "detect-tx";
      work = "failure points";
      pool = "detect-tx";
      draw = (fun seed -> Detect (Draw.detect_tx seed));
      exponent = engine_exponent;
    };
    {
      name = "detect-fig12";
      work = "failure points";
      pool = "detect-fig12";
      draw = (fun seed -> Detect (Draw.detect_fig12 seed));
      exponent = engine_exponent;
    };
    {
      name = "lint-domains";
      work = "events";
      pool = "lint-domains";
      draw = (fun seed -> Lint (Draw.lint seed));
      exponent = engine_exponent;
    };
    {
      name = "fuzz-buggy";
      work = "programs";
      pool = "fuzz-buggy";
      draw = (fun seed -> Fuzz (Draw.fuzz seed));
      exponent = 0.35;
    };
    {
      name = "serve-light";
      work = "verdicts";
      pool = "serve";
      draw = (fun _ -> Serve { pool = Draw.serve_pool; rate = 20.0 });
      exponent = serve_exponent;
    };
    {
      name = "serve-heavy";
      work = "verdicts";
      pool = "serve";
      draw = (fun _ -> Serve { pool = Draw.serve_pool; rate = 30.0 });
      exponent = serve_exponent;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The labels golden entries carry, in draw order. *)
let labels = function
  | Detect progs | Lint progs -> List.map Draw.label progs
  | Fuzz batches -> List.map Draw.batch_label batches
  | Serve { pool; _ } -> List.map Draw.job_label pool

(* ---- verdicts, as golden entries ---- *)

let detect_entry label (o : Engine.outcome) =
  Json.Obj
    [
      ("label", Json.Str label);
      ("fingerprint", Json.Str (Job.fingerprint o));
      ("failure_points", Json.Int o.Engine.failure_points);
    ]

let lint_entry label (reports : (Domain_model.t * Lint.report) list) =
  Json.Obj
    [
      ("label", Json.Str label);
      ("events", Json.Int (match reports with (_, r) :: _ -> r.Lint.events | [] -> 0));
      ( "findings",
        Json.Obj
          (List.map
             (fun (d, r) ->
               (Domain_model.to_string d, Json.Int (List.length r.Lint.findings)))
             reports) );
    ]

(* Without a corpus directory the fuzzer's repro harvesting shrinks
   programs only to throw the result away, so the benchmark turns it off
   and times the checking loop alone. *)
let fuzz_cfg (b : Draw.batch) =
  {
    Fuzz.default_cfg with
    Fuzz.seed = b.Draw.batch_seed;
    budget = b.Draw.budget;
    max_repros = 0;
    shrink_budget = 0;
  }

let fuzz_entry b (s : Fuzz.summary) =
  Json.Obj
    [
      ("label", Json.Str (Draw.batch_label b));
      ("programs", Json.Int s.Fuzz.programs);
      ("buggy_programs", Json.Int s.Fuzz.buggy_programs);
      ("unique_key_sets", Json.Int s.Fuzz.unique_key_sets);
      ("lint_misses", Json.Int s.Fuzz.lint_misses);
      ("divergences", Json.Int s.Fuzz.divergences);
      ("meta_failures", Json.Int s.Fuzz.meta_failures);
    ]

let serve_entry j ~fingerprint ~failure_points =
  Json.Obj
    [
      ("label", Json.Str (Draw.job_label j));
      ("fingerprint", Json.Str fingerprint);
      ("failure_points", Json.Int failure_points);
    ]

(* The expected entry of every input of [family], computed in-process
   with [engine]; goldens come from the [`Fresh] oracle. *)
let expected ~engine family =
  let config = { Config.default with Config.engine } in
  match family with
  | Detect progs ->
    List.map (fun p -> detect_entry (Draw.label p) (Engine.detect ~config (Draw.program p))) progs
  | Lint progs ->
    List.map
      (fun p ->
        let program = Draw.program p in
        lint_entry (Draw.label p)
          (List.map
             (fun domain ->
               (domain, Lint.check_prog ~config:{ Config.default with Config.domain } program))
             Domain_model.all))
      progs
  | Fuzz batches -> List.map (fun b -> fuzz_entry b (Fuzz.run (fuzz_cfg b))) batches
  | Serve { pool; _ } ->
    List.map
      (fun j ->
        let body = Draw.job_body ~engine:(Job.engine_to_string engine) j in
        match Result.bind (Job.spec_of_json body) Job.run with
        | Ok r -> serve_entry j ~fingerprint:r.Job.fingerprint ~failure_points:r.Job.failure_points
        | Error e -> failwith (Printf.sprintf "%s: %s" (Draw.job_label j) e))
      pool

(* ---- measurement plumbing ---- *)

(* One measured call: its wall time and the slowdown of the core it ran
   on, measured right after it (see [Host]). *)
type op = { wall : float; slowdown : float; units : float; attempted : int; failed : int }

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f ()] with its wall time, and the slowdown of this thread's core
   measured right after. *)
let timed_on_host f =
  let v, wall = timed f in
  (v, wall, Host.slowdown ())

(* In a traced run every call into a layer gets a span of its own. *)
let spanned agg name f = match agg with Some _ -> Obs.Span.with_ ~name f | None -> f ()

let note_peaks agg = Option.iter Trace_agg.note_peaks agg

(* Rounds of [calls] until [seconds] have passed, at least one.  [each i c]
   makes the run's [i]-th call [c]; the ops come back in call order. *)
let rounds ~seconds calls each =
  let stop = now () +. seconds in
  let rec go i acc =
    let i, acc = List.fold_left (fun (i, acc) c -> (i + 1, each i c :: acc)) (i, acc) calls in
    if now () >= stop then List.rev acc else go i acc
  in
  go 0 []

let rec chunks n = function
  | [] -> []
  | xs -> List.filteri (fun i _ -> i < n) xs :: chunks n (List.filteri (fun i _ -> i >= n) xs)

(* Set-ups per run; [setup_s] is their median and the last one is kept.
   [prepare ()] returns the set-up and its wall time over its scaled time
   (1 when it is scaled later); the result is the set-ups' wall and scaled
   times, and the kept set-up. *)
let setup_reps = 3

let repeat_setup ~discard prepare =
  let rec go k times =
    let (v, factor), wall = timed prepare in
    let times = (wall, wall /. factor) :: times in
    if k <= 1 then (List.split (List.rev times), v)
    else begin
      discard v;
      go (k - 1) times
    end
  in
  go setup_reps []

let vmhwm_mib status_file =
  let ic = open_in status_file in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line -> (
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kib :: _ -> float_of_string kib /. 1024.0
        | [] -> 0.0)
      | _ -> scan ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- closed-loop calls, one per drawn input ---- *)

let detect_calls progs expected =
  List.map2
    (fun p exp ->
      let label = Draw.label p and program = Draw.program p in
      fun traced ->
        let o, wall, slowdown =
          timed_on_host (fun () ->
              spanned traced "bench.detect" (fun () -> Engine.detect program))
        in
        note_peaks traced;
        {
          wall;
          slowdown;
          units = float_of_int o.Engine.failure_points;
          attempted = 1;
          failed = (if detect_entry label o = exp then 0 else 1);
        })
    progs expected

(* The setup and pre-failure trace of a program under the default
   configuration.  This mirrors [Lint.with_pre_trace], which the lint
   library does not export and which [Lint.check_prog] (the golden path)
   calls; keep the two in step.  The caller releases the device. *)
let pre_trace (p : Engine.program) =
  let c = Config.default in
  Xfd_sim.Faults.reset c.Config.faults;
  let dev = Xfd_mem.Pm_device.create () in
  let trace = Xfd_trace.Trace.create () in
  let ctx =
    Xfd_sim.Ctx.create ~faults:c.Config.faults ~strategy:c.Config.strategy
      ~trust_library:c.Config.trust_library ~stage:Xfd_sim.Ctx.Pre_failure ~dev ~trace ()
  in
  p.Engine.setup ctx;
  (match p.Engine.pre ctx with () -> () | exception Xfd_sim.Ctx.Detection_complete -> ());
  (dev, trace)

let lint_calls progs expected =
  List.map2
    (fun p exp ->
      let label = Draw.label p and program = Draw.program p in
      fun traced ->
        let reports, wall, slowdown =
          timed_on_host (fun () ->
              let dev, trace = spanned traced "bench.lint.trace" (fun () -> pre_trace program) in
              let reports =
                List.map
                  (fun domain ->
                    ( domain,
                      spanned traced
                        ("bench.lint.analyse." ^ Domain_model.to_string domain)
                        (fun () -> Lint.check_trace ~domain trace) ))
                  Domain_model.all
              in
              Xfd_mem.Pm_device.release dev;
              reports)
        in
        let checks = List.length reports in
        {
          wall;
          slowdown;
          units = float_of_int (List.fold_left (fun n (_, r) -> n + r.Lint.events) 0 reports);
          attempted = checks;
          failed = (if lint_entry label reports = exp then 0 else checks);
        })
    progs expected

let fuzz_calls batches expected =
  List.map2
    (fun b exp traced ->
      let s, wall, slowdown =
        timed_on_host (fun () ->
            spanned traced "bench.fuzz.batch" (fun () -> Fuzz.run (fuzz_cfg b)))
      in
      note_peaks traced;
      let bad = s.Fuzz.divergences + s.Fuzz.meta_failures in
      {
        wall;
        slowdown;
        units = float_of_int s.Fuzz.programs;
        attempted = s.Fuzz.programs;
        failed = (if bad = 0 && fuzz_entry b s = exp then 0 else max 1 bad);
      })
    batches expected

(* ---- results ---- *)

type times = {
  setup_s : float list;  (** one per set-up repetition *)
  latency_ms : float list;  (** one per round (closed loops) or job (serve) *)
  throughput : float list;  (** work per second: one per round, or one per serve run *)
}

type result = {
  workload : string;
  work : string;
  seed : int;
  seconds : float;
  traced : bool;
  attempted : int;
  failed : int;
  scaled : times;  (** at the nominal core speed of [Host] *)
  wall : times;
  call_ms : float list;  (** scaled time of every call, or latency of every job: the tail *)
  slowdown : float list;  (** per call: how much slower than nominal its core ran *)
  peak_rss_mib : float;
  layers : (string * float * string) list;  (** traced runs: (name, value, unit) *)
}

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  cli : string;  (** the xfd_cli executable, for the serve workloads *)
  probe : string;  (** the core_probe executable, for the serve workloads *)
  perfetto : string option;  (** traced runs: write the first two ops' spans here *)
}

(* ---- per-layer metrics ---- *)

(* Every layer metric of a traced measurement, for every workload: a
   layer the workload does not reach reads 0.  Times and counts are per
   op (a call, or a served job); [ops] is the number of ops the spans and
   counter deltas cover and [op_ms] their mean wall-clock.  [lint_golden]
   carries what the lint workload's goldens say one call traces and
   finds. *)
let layer_metrics ?(lint_golden = (0.0, [])) ~agg ~delta ~ops ~op_ms () =
  let per_op x = x /. float_of_int (max 1 ops) in
  let span = Trace_agg.span agg in
  let count n = Option.value ~default:0.0 (List.assoc_opt n delta) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let snapshot = span "snapshot" and pre_exec_all = span "pre_exec" in
  let pre_exec = pre_exec_all -. snapshot in
  let post_exec = span "post_exec" and post_run = span "post_run" in
  let pre_replay = span "pre_replay" and post_replay = span "post_replay" in
  let detect = span "detect" in
  let self = detect -. pre_exec_all -. post_exec -. pre_replay -. post_replay in
  let lint_trace = span "bench.lint.trace" in
  let analyse =
    List.map
      (fun d ->
        let d = Domain_model.to_string d in
        (d, span ("bench.lint.analyse." ^ d)))
      Domain_model.all
  in
  let analysed = List.fold_left (fun a (_, s) -> a +. s) 0.0 analyse in
  let lint_events, lint_findings = lint_golden in
  let fps = count "engine.failure_points.fired" and runs = count "engine.runs" in
  let fuzzed = if count "fuzz.programs" > 0.0 then 1.0 else 0.0 in
  let pre_events = count "engine.pre_trace_events" in
  let post_events = count "engine.post_trace_events_per_run" in
  let exec_ms = 1000.0 *. per_op (pre_exec +. post_exec +. lint_trace) in
  let check_ms = 1000.0 *. per_op (pre_replay +. post_replay +. analysed) in
  let s name v = (name, per_op v, "s") and c name v = (name, per_op v, "count") in
  let b name v = (name, per_op v, "bytes") in
  let share name v = (name, ratio v detect, "share") in
  [
    ("exec_ms_per_op", exec_ms, "ms");
    ("check_ms_per_op", check_ms, "ms");
    ("other_ms_per_op", op_ms -. exec_ms -. check_ms, "ms");
    s "engine.pre_exec_s" pre_exec;
    s "engine.snapshot_s" snapshot;
    s "engine.post_exec_s" post_exec;
    s "engine.post_exec_self_s" (post_exec -. post_run);
    s "engine.pre_replay_s" pre_replay;
    s "engine.post_replay_s" post_replay;
    s "engine.self_s" self;
    ("engine.phase_sum_frac", ratio detect (span "bench.detect"), "share");
    share "engine.pre_exec_share" pre_exec;
    share "engine.snapshot_share" snapshot;
    share "engine.post_exec_share" post_exec;
    share "engine.pre_replay_share" pre_replay;
    share "engine.post_replay_share" post_replay;
    share "engine.self_share" self;
    c "engine.failure_points" fps;
    c "engine.pre_replay_events" (count "engine.pre_replay_events");
    ("trace.pre_events", per_op pre_events +. lint_events, "count");
    c "trace.post_events" post_events;
    ("trace.events", per_op (pre_events +. post_events) +. lint_events, "count");
    b "pm.snapshot_bytes" (count "pm.snapshot_bytes");
    c "pm.cow_faults" (count "pm.cow_faults");
    ("pm.chunk_bytes_peak", Trace_agg.peak agg "pm.chunk_bytes_peak", "bytes");
    b "detector.checked_bytes" (count "detector.checked_bytes");
    ("detector.post_replay_ns_per_event", 1e9 *. ratio post_replay post_events, "ns");
    c "shadow.divergence_rewinds" (count "shadow.divergence_rewinds");
    ("shadow.page_bytes_peak", Trace_agg.peak agg "shadow.page_bytes_peak", "bytes");
    c "gc.minor_words" (count "gc.minor_words");
    ("gc.minor_words_per_fp", ratio (count "gc.minor_words") fps, "count");
    s "lint.trace_s" lint_trace;
  ]
  @ List.map (fun (d, v) -> s ("lint.analyse_s." ^ d) v) analyse
  @ [ c "lint.events" (count "lint.events") ]
  @ List.map
      (fun (d, _) ->
        ("lint.findings." ^ d, Option.value ~default:0.0 (List.assoc_opt d lint_findings), "count"))
      analyse
  @ [
      s "fuzz.detect_s" (fuzzed *. detect);
      s "fuzz.self_s" (fuzzed *. (span "bench.fuzz.batch" -. detect));
      ("fuzz.detects_per_program", ratio runs (count "fuzz.programs"), "count");
      ("fuzz.ms_per_detect", fuzzed *. 1000.0 *. ratio detect runs, "ms");
      c "fuzz.divergences" (count "fuzz.divergences");
      c "fuzz.meta_failures" (count "fuzz.meta_failures");
    ]

let tail_metrics latency_ms =
  let pct, v = Stats.tail latency_ms in
  [
    ("op_tail_ms", v, "ms");
    ("op_tail_pct", pct, "percentile");
    ("op_samples", float_of_int (List.length latency_ms), "count");
  ]

(* What one lint call traces and finds on average, per the goldens. *)
let lint_golden expected =
  let int_at path j =
    match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
    | Some (Json.Int n) -> float_of_int n
    | _ -> 0.0
  in
  let mean path =
    List.fold_left (fun a e -> a +. int_at path e) 0.0 expected
    /. float_of_int (max 1 (List.length expected))
  in
  ( mean [ "events" ],
    List.map
      (fun d ->
        let d = Domain_model.to_string d in
        (d, mean [ "findings"; d ]))
      Domain_model.all )

(* One scheduled submission of a serve run. *)
type send = {
  due : float;  (** scheduled send time *)
  sent : float;
  rtt : float;
  code : int;  (** HTTP status of the POST; 0 when the request failed *)
  id : string option;  (** the accepted job *)
  idx : int;  (** pool index *)
  status : Json.t option;  (** the job's status, read once the window has ended *)
}

let ms x = 1000.0 *. x
let p50 = function [] -> 0.0 | xs -> Stats.median xs

let num key j =
  match Json.member key j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let at key s = Option.bind s.status (num key) |> Option.value ~default:0.0

(* From the scheduled send time to the server's verdict, on one host clock. *)
let latency s = ms (at "finished_at" s -. s.due)

(* Where a served job's time went: the client's send times against the
   server's timestamps.  [good] are the sends with a correct verdict and
   [detect_ms] the in-process detection time of each pool job.  Closed
   loops pass nothing and read 0. *)
let serve_metrics ~sends ~good ~detect_ms =
  let accept s = ms (at "submitted_at" s -. s.sent) in
  let queue s = ms (at "started_at" s -. at "submitted_at" s) in
  let run s = ms (at "finished_at" s -. at "started_at" s) in
  let lat = List.map latency good in
  [
    ("serve.post_rtt_ms.p50", p50 (List.map (fun s -> ms s.rtt) sends), "ms");
    ("serve.accept_delay_ms.p50", p50 (List.map accept good), "ms");
    ("serve.queue_wait_ms.p50", p50 (List.map queue good), "ms");
    ("serve.run_ms.p50", p50 (List.map run good), "ms");
    ("serve.detect_ms.p50", p50 (List.map (fun s -> detect_ms.(s.idx)) sends), "ms");
    ("serve.job_overhead_ms.p50", p50 (List.map (fun s -> run s -. detect_ms.(s.idx)) good), "ms");
    ( "serve.rejected",
      float_of_int (List.length (List.filter (fun s -> s.code <> 202) sends)),
      "count" );
    ( "serve.gen_late_ms.max",
      List.fold_left (fun m s -> Float.max m (ms (s.sent -. s.due))) 0.0 sends,
      "ms" );
    ( "serve.wait_share",
      (if lat = [] then 0.0
       else Stats.mean (List.map (fun s -> accept s +. queue s) good) /. Stats.mean lat),
      "share" );
  ]

(* ---- closed-loop runs ---- *)

(* Spans of a traced run's first two ops, written to [path] as a Perfetto
   trace.  The returned function follows the run's [i]-th op; once the
   second has ended (or on [max_int], when the run ends) the file is
   written. *)
let perfetto_first_two path =
  let live = ref (Option.map (fun p -> (p, Perfetto.Collector.start ())) path) in
  fun i ->
    if i >= 1 then begin
      Option.iter (fun (p, c) -> ignore (Perfetto.Collector.stop_to_file c p)) !live;
      live := None
    end

let run_closed (opts : opts) w family expected =
  let make () =
    match family with
    | Detect progs -> detect_calls progs expected
    | Lint progs -> lint_calls progs expected
    | Fuzz batches -> fuzz_calls batches expected
    | Serve _ -> invalid_arg "Workload.run_closed: serve is open-loop"
  in
  let scaled (o : op) = Host.scale ~exponent:w.exponent o.slowdown o.wall in
  let wall (o : op) = o.wall in
  let sum f (ops : op list) = List.fold_left (fun a o -> a +. f o) 0.0 ops in
  let count f (ops : op list) = List.fold_left (fun a o -> a + f o) 0 ops in
  let (wall_setup, scaled_setup), calls =
    repeat_setup ~discard:ignore (fun () ->
        let calls = make () in
        let warm = List.map (fun c -> c None) calls in
        (calls, sum wall warm /. sum scaled warm))
  in
  let agg = if opts.traced then Some (Trace_agg.start ()) else None in
  let before = Trace_agg.counts () in
  let perfetto = perfetto_first_two (if opts.traced then opts.perfetto else None) in
  let ops =
    rounds ~seconds:opts.seconds calls (fun i c ->
        let r = c agg in
        perfetto i;
        r)
  in
  perfetto max_int;
  let per_round = chunks (List.length calls) ops in
  let times setup_s time =
    {
      setup_s;
      latency_ms = List.map (fun r -> 1000.0 *. sum time r) per_round;
      throughput = List.map (fun r -> sum (fun (o : op) -> o.units) r /. sum time r) per_round;
    }
  in
  let call_ms = List.map (fun o -> 1000.0 *. scaled o) ops in
  let layers =
    match agg with
    | None -> []
    | Some agg ->
      let delta = Trace_agg.delta before (Trace_agg.counts ()) in
      Trace_agg.stop agg;
      let lint_golden = match family with Lint _ -> Some (lint_golden expected) | _ -> None in
      layer_metrics ?lint_golden ~agg ~delta ~ops:(List.length ops)
        ~op_ms:(1000.0 *. sum wall ops /. float_of_int (List.length ops))
        ()
      @ tail_metrics call_ms
      @ serve_metrics ~sends:[] ~good:[] ~detect_ms:[||]
  in
  {
    workload = w.name;
    work = w.work;
    seed = opts.seed;
    seconds = opts.seconds;
    traced = opts.traced;
    attempted = count (fun (o : op) -> o.attempted) ops;
    failed = count (fun (o : op) -> o.failed) ops;
    scaled = times scaled_setup scaled;
    wall = times wall_setup wall;
    call_ms;
    slowdown = List.map (fun (o : op) -> o.slowdown) ops;
    peak_rss_mib = vmhwm_mib "/proc/self/status";
    layers;
  }

(* ---- the service workloads ---- *)

let host = "127.0.0.1"

(* Processes a run starts.  Each is stopped (SIGTERM, then SIGKILL after
   30 s) and reaped, at the latest when the benchmark exits. *)
module Child = struct
  let live : int list ref = ref []

  let spawn (prog, args) ~stdout ~stderr =
    let pid = Unix.create_process prog args Unix.stdin stdout stderr in
    live := pid :: !live;
    pid

  let stop pid =
    live := List.filter (( <> ) pid) !live;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 30.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ()

  let () = at_exit (fun () -> List.iter stop !live)
end

(* A core_probe process pinned to [cpu]: the slowdowns of that core. *)
module Probe = struct
  type t = { pid : int; out : in_channel }

  let start ~exe ~cpu =
    let r, w = Unix.pipe ~cloexec:true () in
    let pid = Child.spawn (Host.pinned (Some cpu) exe [| exe |]) ~stdout:w ~stderr:Unix.stderr in
    Unix.close w;
    { pid; out = Unix.in_channel_of_descr r }

  (* Stop the probe and return what it measured. *)
  let stop p =
    Child.stop p.pid;
    let text = In_channel.input_all p.out in
    close_in_noerr p.out;
    List.filter_map float_of_string_opt (String.split_on_char '\n' text)
end

(* A spawned [xfd_cli serve] on an ephemeral port.  Its stderr (and
   stdout) come back on a pipe: the first line names the bound port. *)
module Daemon = struct
  type t = { pid : int; port : int; out : in_channel }

  let stop d =
    Child.stop d.pid;
    close_in_noerr d.out

  (* "serve: listening on http://127.0.0.1:PORT/ ..." *)
  let parse_port line =
    let key = host ^ ":" in
    let kl = String.length key and n = String.length line in
    let rec find i =
      if i + kl > n then None else if String.sub line i kl = key then Some (i + kl) else find (i + 1)
    in
    Option.bind (find 0) (fun start ->
        let stop = ref start in
        while !stop < n && line.[!stop] >= '0' && line.[!stop] <= '9' do
          incr stop
        done;
        int_of_string_opt (String.sub line start (!stop - start)))

  let wait_ready port =
    let deadline = now () +. 30.0 in
    let rec go () =
      match Httpc.get ~host ~port "/ready" with
      | Ok (200, _) -> ()
      | _ when now () < deadline ->
        Unix.sleepf 0.002;
        go ()
      | _ -> failwith "serve daemon never answered /ready"
    in
    go ()

  let start ~cli ~cpu ~retain =
    let r, w = Unix.pipe ~cloexec:true () in
    let pid =
      Child.spawn
        (Host.pinned cpu cli
           [| cli; "serve"; "--port"; "0"; "--workers"; "2"; "--retain"; string_of_int retain |])
        ~stdout:w ~stderr:w
    in
    Unix.close w;
    let d = { pid; port = 0; out = Unix.in_channel_of_descr r } in
    let port =
      match input_line d.out with
      | line -> parse_port line
      | exception End_of_file -> None
    in
    match port with
    | None ->
      stop d;
      failwith (cli ^ " serve did not report a listening port")
    | Some port ->
      wait_ready port;
      { d with port }

  let peak_rss_mib d = vmhwm_mib (Printf.sprintf "/proc/%d/status" d.pid)
end

let submit port body =
  match Httpc.post ~body ~host ~port "/v1/jobs" with
  | Ok (202, _, resp) ->
    ( 202,
      match Result.map (Json.member "id") (Json.of_string resp) with
      | Ok (Some (Json.Str id)) -> Some id
      | _ -> None )
  | Ok (status, _, _) -> (status, None)
  | Error _ -> (0, None)

let job_state j = match Json.member "state" j with Some (Json.Str s) -> s | _ -> ""

(* Poll one job until it is done or failed. *)
let await port id =
  let deadline = now () +. 120.0 in
  let rec go () =
    let status =
      match Httpc.get ~host ~port ("/v1/jobs/" ^ id) with
      | Ok (200, body) -> Result.to_option (Json.of_string body)
      | _ -> None
    in
    match status with
    | Some j when job_state j = "done" || job_state j = "failed" -> Some j
    | _ when now () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | _ -> None
  in
  go ()

(* The served verdict of a finished job, as a golden entry. *)
let served_entry job status =
  let result key = Option.bind (Json.member "result" status) (Json.member key) in
  match (result "fingerprint", result "failure_points") with
  | Some (Json.Str fingerprint), Some (Json.Int failure_points) ->
    Some (serve_entry job ~fingerprint ~failure_points)
  | _ -> None

let job_config (j : Draw.job) =
  let faults =
    match j.Draw.patch with
    | None -> Xfd_sim.Faults.none
    | Some p -> ( match Job.faults_of_spec p with Ok f -> f | Error e -> invalid_arg e)
  in
  { Config.default with Config.faults; forensics = j.Draw.patch <> None }

let run_serve (opts : opts) w pool rate expected =
  let schedule = Draw.schedule opts.seed ~rate ~seconds:opts.seconds in
  let retain = List.length schedule + 64 in
  let jobs = Array.of_list pool and expected = Array.of_list expected in
  let bodies = Array.map (fun j -> Json.to_string (Draw.job_body j)) jobs in
  let warm port =
    List.iter
      (fun j ->
        match submit port (Json.to_string (Draw.job_body j)) with
        | 202, Some id -> ignore (await port id)
        | _ -> ())
      Draw.warmup_jobs
  in
  (* The daemon runs on a core this process cannot time itself, so it is
     pinned to a spare core with a probe beside it (see [Host]), and this
     process keeps off that core. *)
  let cpu = Lazy.force Host.spare_cpu in
  Option.iter Host.avoid cpu;
  let probe = Option.map (fun cpu -> Probe.start ~exe:opts.probe ~cpu) cpu in
  let slowdown = ref [] in
  (* Only this process traces: the daemon runs untraced, so a traced serve
     run has client spans, and engine spans from the in-process pass
     below, but no overhead of its own to report. *)
  let agg = if opts.traced then Some (Trace_agg.start ()) else None in
  let perfetto = perfetto_first_two (if opts.traced then opts.perfetto else None) in
  let t0 = ref 0.0 in
  let setup_s, sends, peak_rss_mib =
    Fun.protect
      ~finally:(fun () -> Option.iter (fun p -> slowdown := Probe.stop p) probe)
    @@ fun () ->
    let (setup_s, _), daemon =
      repeat_setup ~discard:Daemon.stop (fun () ->
          let d = Daemon.start ~cli:opts.cli ~cpu ~retain in
          warm d.Daemon.port;
          (d, 1.0))
    in
    let port = daemon.Daemon.port in
    Fun.protect
      ~finally:(fun () -> Daemon.stop daemon)
      (fun () ->
        t0 := now () +. 0.01;
        let sends =
          List.mapi
            (fun i (offset, idx) ->
              let due = !t0 +. offset in
              let rec sleep () =
                let d = due -. now () in
                if d > 0.0 then begin
                  (try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                  sleep ()
                end
              in
              sleep ();
              let sent = now () in
              let code, id = spanned agg "bench.serve.post" (fun () -> submit port bodies.(idx)) in
              let rtt = now () -. sent in
              perfetto i;
              { due; sent; rtt; code; id; idx; status = None })
            schedule
        in
        perfetto max_int;
        let sends = List.map (fun s -> { s with status = Option.bind s.id (await port) }) sends in
        (setup_s, sends, Daemon.peak_rss_mib daemon))
  in
  let ok s =
    s.code = 202
    &&
    match s.status with
    | Some st -> job_state st = "done" && served_entry jobs.(s.idx) st = Some expected.(s.idx)
    | None -> false
  in
  let good = List.filter ok sends in
  let t_last = List.fold_left (fun m s -> Float.max m (at "finished_at" s)) !t0 good in
  let lat = List.map latency good in
  let wall =
    {
      setup_s;
      latency_ms = lat;
      throughput = [ float_of_int (List.length good) /. Float.max 1e-9 (t_last -. !t0) ];
    }
  in
  (* Times scale by the daemon core's slowdown over the run.  The
     throughput is the offered rate unless the daemon falls behind, so it
     stays as measured. *)
  let scale = List.map (Host.scale ~exponent:w.exponent (Host.window_slowdown !slowdown)) in
  let scaled = { wall with setup_s = scale setup_s; latency_ms = scale lat } in
  let layers =
    match agg with
    | None -> []
    | Some agg ->
      (* The same specs in-process, once each: the engine's share of a
         served job.  Jobs cycle through the pool, so the pool average is
         the per-job average. *)
      let before = Trace_agg.counts () in
      let detect_ms =
        Array.map
          (fun j ->
            let program = Draw.program j.Draw.prog and config = job_config j in
            let _, dt =
              timed (fun () ->
                  spanned (Some agg) "bench.detect" (fun () -> Engine.detect ~config program))
            in
            Trace_agg.note_peaks agg;
            ms dt)
          jobs
      in
      let delta = Trace_agg.delta before (Trace_agg.counts ()) in
      Trace_agg.stop agg;
      layer_metrics ~agg ~delta ~ops:(Array.length jobs) ~op_ms:(Stats.mean lat) ()
      @ tail_metrics (if lat = [] then [ 0.0 ] else scaled.latency_ms)
      @ serve_metrics ~sends ~good ~detect_ms
  in
  {
    workload = w.name;
    work = w.work;
    seed = opts.seed;
    seconds = opts.seconds;
    traced = opts.traced;
    attempted = List.length sends;
    failed = List.length sends - List.length good;
    scaled;
    wall;
    call_ms = scaled.latency_ms;
    slowdown = !slowdown;
    peak_rss_mib;
    layers;
  }

let run opts w expected =
  match w.draw opts.seed with
  | Serve { pool; rate } -> run_serve opts w pool rate expected
  | family -> run_closed opts w family expected
