(** The flight recorder: a bounded, leveled run log for detection runs.

    The engine records lifecycle events — failure points
    scheduled/started/judged, snapshots recorded/dropped, worker joins —
    through {!record}.  The newest events are retained in a ring of
    {!capacity} entries (oldest dropped and counted in
    ["flight.events_dropped"]), stamped with the id of the detection run
    they belong to, and streamed as JSONL records of
    [{"type":"flight",...}] shape whenever an [Obs.Sink] is installed.
    Every 64th event additionally samples [Gc.quick_stat] into the
    [gc.*] gauges.

    Recording is observation-only and verdict-neutral: it is bounded,
    never raises into the caller, and has no channel back into detection
    state. *)

type level = Debug | Info | Warn

val level_to_string : level -> string
val level_of_string : string -> level option

type event = {
  seq : int;  (** process-global monotone sequence number *)
  ts : float;  (** Unix timestamp, seconds *)
  run : string;  (** id of the detection run this event belongs to *)
  level : level;
  name : string;  (** dotted event name, e.g. ["fp.verdict"] *)
  fields : (string * Xfd_util.Json.t) list;
}

(** {1 Configuration} *)

(** Whether events are recorded at all (default [true]). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Minimum level retained (default [Info]; the engine's per-failure-point
    events are [Debug], so the default run log stays small). *)
val level : unit -> level

val set_level : level -> unit

(** Ring size in events (default 8192).  [set_capacity] reallocates,
    keeping the newest events and counting any overflow as dropped. *)
val capacity : unit -> int

val set_capacity : int -> unit

(** {1 Recording} *)

(** [record ~level ~run name fields] appends one event (if enabled and
    at or above the level threshold), tagged with [run] — by default the
    latest run begun, {!run_id}.  Runs may overlap (two served jobs
    detecting at once), so the engine passes the id {!begin_run}
    returned to every event of its run. *)
val record : ?level:level -> ?run:string -> string -> (string * Xfd_util.Json.t) list -> unit

(** Start a new run: generates a fresh run id, makes it the latest
    ({!run_id}), and records a ["run.begin"] event tagged with it.
    Returns the id. *)
val begin_run : program:string -> string

(** Record run [run]'s ["run.end"] event carrying [fields]. *)
val end_run : run:string -> (string * Xfd_util.Json.t) list -> unit

(** The id of the latest run begun (["-"] before the first
    {!begin_run}) — what a status page shows as "the current run". *)
val run_id : unit -> string

(** {1 Inspection and export} *)

(** Retained events, oldest first.  Non-consuming. *)
val events : unit -> event list

(** Drop every retained event (counters are untouched). *)
val clear : unit -> unit

val event_to_json : event -> Xfd_util.Json.t

(** Write the retained events to [path] as JSONL, oldest first; returns
    how many were written. *)
val write_jsonl : string -> int
