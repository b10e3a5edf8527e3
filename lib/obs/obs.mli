(** Observability for the detection pipeline: metrics, spans and sinks.

    The paper's evaluation (Figures 12-13) is entirely about where the
    detector spends its time and events — pre- vs post-failure execution,
    replay, snapshotting.  This module gives every layer of the
    reproduction a process-global place to record that:

    - {b metrics} — named monotonic {!Counter}s, {!Gauge}s and log-scale
      {!Histogram}s, registered once by name and safe to update from any
      domain (the engine runs post-failure executions on a domain pool);
    - {b spans} — timed spans grouped into runs: a run's root span
      ({!Span.root}) owns the list of its spans, and every child is opened
      through an explicit {!Span.scope}, so concurrent runs never see each
      other's spans.  Their per-phase aggregation reproduces the Figure 12
      wall-clock breakdown;
    - {b sinks} — JSONL streams ({!Sink}) that receive one record per
      finished span plus an end-of-run summary record.

    The only process-wide span state is the installed sinks and the
    per-name aggregate behind {!summary_json}.

    Metric updates honour a global enabled flag ({!set_enabled}): when
    disabled, every update is a load-and-branch no-op, so instrumented hot
    paths cost almost nothing.  Spans always measure time (two clock reads
    per span) because the engine derives its [timings] struct from them,
    but they are only streamed to sinks when a sink is installed. *)

(** {1 Global switch} *)

(** Whether metric updates are recorded (default: [true]). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Zero every registered counter, gauge and histogram and drop the span
    aggregates.  Registered metric handles stay valid. *)
val reset : unit -> unit

(** {1 Metrics}

    [make name] registers a metric under [name] the first time it is
    called and returns the same instance on every later call, so modules
    can declare their metrics at toplevel.  Registering the same name as
    two different metric kinds raises [Invalid_argument].  Names are
    dotted paths, e.g. ["pm.flushes"] or ["bugs.race"]. *)

module Counter : sig
  type t

  val make : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val name : t -> string
  val set : t -> float -> unit
  val value : t -> float
end

(** Log-scale (base-2) histograms of non-negative integer samples: bucket
    0 holds samples [= 0], bucket [i >= 1] holds samples in
    [[2^(i-1), 2^i - 1]].  Negative samples are rejected whole — nothing
    is recorded, and the drop is counted in the ["obs.observe_dropped"]
    counter — so [count]/[sum]/[max]/buckets always describe the same
    sample set. *)
module Histogram : sig
  type t

  val make : string -> t
  val name : t -> string
  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val max_value : t -> int

  (** [quantile t q] estimates the [q]-quantile ([q] clamped to [0,1]) by
      finding the bucket holding the target rank and interpolating
      linearly inside its value range, clamped to {!max_value} so the
      estimate never exceeds a real sample.  Empty histograms estimate 0.
      Resolution is the bucket width (a factor of 2), which is exactly
      the precision the log-scale buckets retain. *)
  val quantile : t -> float -> int

  (** [(q, quantile t q)] for the conventional p50/p95/p99. *)
  val quantiles : t -> (float * int) list

  (** Non-empty buckets as [(inclusive upper bound, count)], ascending. *)
  val buckets : t -> (int * int) list
end

(** Look up a registered metric's current value by name — handy for tests
    and CLI summaries that do not hold the handle. *)
val counter_value : string -> int option

val gauge_value : string -> float option

(** Every registered metric, sorted by name within each kind:
    [(counters, gauges, histograms)].  Counter and gauge values are read
    at call time; histogram handles are live (read them promptly).  This
    is the feed for pollers — the pulse layer's time-series sampler and
    OpenMetrics encoder. *)
val metrics_snapshot :
  unit -> (string * int) list * (string * float) list * (string * Histogram.t) list

(** {1 Spans} *)

module Span : sig
  (** A finished span.  [start] is an absolute Unix timestamp in seconds,
      [dur] the wall-clock duration.  [parent] is the id of the span whose
      {!scope} opened this one, [None] for a root.  [tid] is the integer
      id of the domain the span ran on — the track key for trace export,
      one track per pool helper. *)
  type record = {
    id : int;
    parent : int option;
    name : string;
    tid : int;
    start : float;
    dur : float;
    meta : (string * Xfd_util.Json.t) list;
  }

  (** An open span of one run: the handle its children are opened
      under.  Passing it is the only way to parent a span, so a span
      opened on a pool helper, or on another thread, lands in the run
      whose scope it was given. *)
  type scope

  (** [root ~name f] times [f scope] as the root span of a new run and
      returns [f]'s value with every span of that run — the root and each
      span opened under its scope, transitively — in completion order,
      the root last.  If [f] raises, the spans are dropped from the
      result; they have still been streamed and aggregated. *)
  val root :
    ?meta:(string * Xfd_util.Json.t) list ->
    name:string ->
    (scope -> 'a) ->
    'a * record list

  (** [child scope ~name f] times [f] as a span whose parent is [scope]'s
      span, added to [scope]'s run when [f] returns or raises.  Safe to
      call from any domain or thread. *)
  val child :
    ?meta:(string * Xfd_util.Json.t) list -> scope -> name:string -> (scope -> 'a) -> 'a

  (** [with_ ~name f] times [f ()] as a root span nobody collects: it is
      only streamed and aggregated. *)
  val with_ : ?meta:(string * Xfd_util.Json.t) list -> name:string -> (unit -> 'a) -> 'a

  (** Aggregate a span list by name: [(name, (count, total seconds))]. *)
  val aggregate : record list -> (string * (int * float)) list

  (** Process-lifetime aggregate over every finished span, sorted by
      name. *)
  val aggregate_all : unit -> (string * (int * float)) list

  val record_to_json : record -> Xfd_util.Json.t
end

(** {1 Sinks} *)

module Sink : sig
  type t

  (** A sink writing one compact JSON value per line to a channel.  The
      channel is flushed, not closed, on {!uninstall}. *)
  val to_channel : out_channel -> t

  (** Like {!to_channel} for a freshly created file; {!uninstall} closes
      it. *)
  val to_file : string -> t

  (** A sink around arbitrary callbacks — e.g. an in-memory collector.
      [write] calls are serialized by the dispatch lock. *)
  val of_fn : write:(Xfd_util.Json.t -> unit) -> close:(unit -> unit) -> t

  (** Install globally.  Multiple sinks receive every record. *)
  val install : t -> unit

  (** Remove (and flush/close) one sink; unknown sinks are ignored. *)
  val uninstall : t -> unit

  (** Send one record to every installed sink. *)
  val emit : Xfd_util.Json.t -> unit

  (** Is at least one sink installed? *)
  val active : unit -> bool
end

(** {1 Summaries} *)

(** One record describing the current state of every registered metric
    plus the process-lifetime span aggregates:
    [{"type":"summary","counters":{..},"gauges":{..},
      "histograms":{name:{"count","sum","max","p50","p95","p99",
                          "buckets":[{"le","count"}..]}},
      "spans":{name:{"count","total_s"}}}]. *)
val summary_json : unit -> Xfd_util.Json.t

(** Emit {!summary_json} to the installed sinks. *)
val write_summary : unit -> unit

(** Human-readable dump of the same data (non-zero metrics only). *)
val pp_summary : Format.formatter -> unit -> unit
