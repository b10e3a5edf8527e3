(** Chrome trace-event (Perfetto) export of the span tree.

    Produces the JSON trace-event format that {{:https://ui.perfetto.dev}
    Perfetto} and chrome://tracing load: one ["ph":"X"] complete event
    per span, microsecond timestamps relative to the earliest span, and
    one named track per domain ([tid]) — so the engine's domain-pool
    workers appear as separate rows with their [post_run] slices
    overlapping in the parallel section of a run. *)

(** The whole trace as one JSON value
    [{"traceEvents":[...],"displayTimeUnit":"ms"}], including
    process/thread metadata events. *)
val of_spans : ?process_name:string -> Xfd_obs.Obs.Span.record list -> Xfd_util.Json.t

(** [to_file path spans] writes {!of_spans} compactly to [path]. *)
val to_file : ?process_name:string -> string -> Xfd_obs.Obs.Span.record list -> unit

(** Tap the sink stream instead of holding spans: a collector installed
    with {!Collector.start} parses every [{"type":"span"}] record that
    passes through [Obs.Sink.emit].  Each [Engine.detect] hands its own
    spans to its caller only, in its outcome, so a multi-run session — a
    fuzz sweep, the bench harness — sees them all only streamed.
    Bounded: beyond [capacity] slices (default 200k) new ones are counted
    as dropped. *)
module Collector : sig
  type t

  val start : ?capacity:int -> unit -> t

  (** Uninstall the tap and build the trace from what it captured. *)
  val stop : t -> Xfd_util.Json.t

  (** Returns the number of slices written. *)
  val stop_to_file : t -> string -> int

  (** Slices not captured because the bound was hit. *)
  val dropped : t -> int
end
