(** End-to-end detection: the paper's Figure 7 pipeline.

    [detect] runs the pre-failure program once under tracing, capturing
    the crash image at every failure point the context fires (before each
    ordering point inside the RoI, eliding points with no PM update since
    the previous one — section 5.4 optimisation 2).  For every capture it
    boots an image-only device from the image, runs the post-failure
    program on it under tracing, and replays both traces through the
    backend.  Results carry the
    per-failure-point reports, the deduplicated bug list and the timing
    breakdown used by the Figure 12/13 experiments. *)

module Ctx = Xfd_sim.Ctx

(** A program under test: [setup] initialises the pool (outside the RoI),
    [pre] is the pre-failure stage (it brackets itself with RoI
    annotations), [post] is the recovery-and-resumption stage run after
    every injected failure. *)
type program = {
  name : string;
  setup : Ctx.t -> unit;
  pre : Ctx.t -> unit;
  post : Ctx.t -> unit;
}

(** Live progress through the post-failure stage: [completed] of [total]
    failure points post-executed so far.  Reported once with
    [completed = 0] when the stage starts, then after every completed
    post run. *)
type progress = { completed : int; total : int }

type timings = {
  pre_exec : float;  (** pre-failure execution + tracing *)
  post_exec : float;  (** all post-failure executions + tracing *)
  pre_replay : float;  (** backend replay of the pre-failure trace *)
  post_replay : float;  (** backend replay of all post-failure traces *)
  snapshotting : float;  (** crash-image captures at failure points *)
}

type outcome = {
  program : string;
  failure_points : int;
  reports : Report.failure_report list;
  unique_bugs : Report.bug list;  (** deduplicated across failure points *)
  pre_events : int;
  post_events : int;  (** total over all post-failure runs *)
  timings : timings;  (** derived from [spans] via {!timings_of_spans} *)
  spans : Xfd_obs.Obs.Span.record list;
      (** this run's span tree: a root ["detect"] span with ["pre_exec"],
          ["post_exec"], ["pre_replay"], ["post_replay"] phases,
          ["snapshot"] children inside [pre_exec], and per-failure-point
          ["post_run"]/replay children carrying a [failure_point] meta
          field *)
  coverage : Xfd_forensics.Coverage.t;
      (** what this run exercised: failure points fired vs elided, RoI
          ordering points, bytes read-checked vs bytes written, per-class
          bug counts — counter deltas over the run *)
}

(** Exceptions escaping the post-failure program are recorded as
    [Post_failure_error] findings — except fatal runtime conditions
    ([Assert_failure], [Out_of_memory], [Stack_overflow]), which indicate a
    broken harness rather than a PM bug: those abort detection and re-raise
    the original exception, including out of worker domains when
    [config.post_jobs > 1] (workers capture per-item exceptions and the
    first, in failure-point order, is re-raised after every domain has
    joined). *)
val detect :
  ?config:Config.t ->
  ?priority:((int * int) list -> int list) ->
  ?on_progress:(progress -> unit) ->
  program ->
  outcome

(** When [on_progress] is given, it is invoked with live {!progress}
    counts as post-failure runs complete.  Observation-only and
    verdict-neutral: the callback sees counts, never detection state, and
    anything it raises is swallowed.  With [config.post_jobs > 1] it runs
    on whichever worker domain finished the run, so it must be
    domain-safe (the CLI's renderer serializes with a mutex). *)

(** When [priority] is given, it receives the fired failure points as
    [(ordinal, trace position)] pairs in trace order and returns one score
    per point; post-failure executions then run highest-score first (ties
    keep failure-point order).  Scheduling only: every point still runs,
    replay stays in trace order, reports keep failure-point order — the
    outcome is identical to the default order (the post-failure runs are
    independent, each on its own image copy).  A hook that raises or
    returns a list of the wrong length is ignored.  {!Xfd_lint} uses this
    to post-execute statically suspicious windows first. *)

(** [detect_at ~failure_point program] is the single-failure-point oracle
    entry: the pipeline runs exactly as {!detect} — failure points are
    numbered, elided and capped identically — but only the point with the
    given ordinal is captured and post-executed, so the outcome carries
    at most one failure report (none when the ordinal is out of range).
    The fuzzer's shrinker and corpus replay use this to re-check one
    verdict without paying for the full sweep. *)
val detect_at : ?config:Config.t -> failure_point:int -> program -> outcome

(** Aggregate a span tree into the Figure 12 timing struct: phase totals
    by span name, with snapshot time carved out of [pre_exec].  [detect]
    builds [outcome.timings] with exactly this function, so the legacy
    struct cannot drift from the span tree. *)
val timings_of_spans : Xfd_obs.Obs.Span.record list -> timings

(** Aggregate wall-clock attributed to the pre-failure stage (execution +
    replay + snapshotting) and the post-failure stage, as broken down in the
    paper's Figure 12a. *)
val wall_breakdown : outcome -> float * float

val total_wall : outcome -> float

(** Count bugs by class: races, semantic, performance, post-failure
    errors. *)
val tally : outcome -> int * int * int * int

(** [run_once ?tracing program] runs the program once with no failure
    injection and no detection: setup and pre-failure stage on a fresh
    device, one [Full] crash at the end, and the post-failure stage on an
    image-only device booted from it.  Returns the wall time of that pass
    and the pre- and post-failure traces ([tracing] defaults to [true]).
    Every device and crash image is released, also when the program
    raises. *)
val run_once :
  ?tracing:bool -> program -> float * Xfd_trace.Trace.t * Xfd_trace.Trace.t

(** Run the program once (pre then post, no failure injection) with tracing
    but no detection — the paper's "Pure Pin" baseline.  Returns wall time. *)
val run_traced : program -> float

(** Run the program once with tracing disabled — the original program.
    Returns wall time. *)
val run_original : program -> float

val pp_outcome : Format.formatter -> outcome -> unit

(** JSON form of a whole outcome (per-failure-point reports, unique bugs,
    statistics), for machine consumption. *)
val outcome_to_json : outcome -> Xfd_util.Json.t

(** The saved-report envelope
    [{"type":"xfd_report","schema_version":1,"job":..,"report":..}]
    around an {!outcome_to_json} value; only the service passes a [job]
    block. *)
val report_envelope : ?job:Xfd_util.Json.t -> Xfd_util.Json.t -> Xfd_util.Json.t
