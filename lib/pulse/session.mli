(** One telemetry session around a command: every observation surface a
    run can ask for, started together and torn down in one fixed order.

    {!start} installs the JSONL metrics sink, starts the Perfetto span
    collector, raises the flight recorder to [Debug] when its log is
    wanted, and starts the {!Tsdb} sampler, the pulse HTTP server and the
    live dashboard when any pulse option asks for them.  {!stop} stops the
    dashboard, then: stops the collector and writes its file, writes the
    flight JSONL, writes the summary record and uninstalls the sink,
    prints the human summary, lingers, stops the sampler and the pulse
    server and dumps the sampled series.  Everything is observation-only:
    verdicts are the same with or without a session. *)

type opts = {
  metrics_out : string option;  (** JSONL span records and a final summary *)
  trace_out : string option;  (** Chrome trace-event JSON of every span *)
  flight_out : string option;  (** flight-recorder log, recorded at [Debug] *)
  summary : bool;  (** print the human-readable summary on stderr at the end *)
  live : bool;  (** redraw the dashboard on stderr (only on a terminal) *)
  port : int option;  (** serve the pulse routes on 127.0.0.1 (0 = ephemeral) *)
  interval : float;  (** sampling interval, seconds *)
  linger : float;  (** seconds the sampler and server outlive the command *)
  pulse_out : string option;  (** sampled series as JSONL *)
}

(** Everything off; a 0.25 s sampling interval. *)
val default : opts

type t

val start : opts -> t

(** A detection-progress observer feeding the dashboard and [/health];
    [None] when no pulse option is on. *)
val progress : t -> (completed:int -> total:int -> unit) option

(** Tear the session down.  Idempotent. *)
val stop : t -> unit

(** [with_ opts f] is [f] between {!start} and {!stop}; the teardown also
    runs when [f] raises. *)
val with_ : opts -> (t -> 'a) -> 'a
