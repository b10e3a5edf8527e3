(** The terminal dashboard behind [xfd_cli top].

    A {!snap} is one glanceable view of a detection run: lifecycle,
    progress, bug tallies, PM traffic, and a throughput sparkline from
    the Tsdb window.  {!snap_local} reads the in-process registry (the
    [run --pulse] live view); {!snap_remote} polls another process's
    pulse endpoint.  {!render} is pure string-building. *)

type snap = {
  at : float;
  status : string;
  run : string;
  completed : int;
  total : int;
  fp_fired : int;
  unique_bugs : int;
  bug_race : int;
  bug_semantic : int;
  bug_perf : int;
  pm_store_bytes : int;
  pm_flushes : int;
  pm_fences : int;
  pm_snapshot_bytes : int;
  pm_live_bytes : float;
  samples : int;
  spark : (float * float) list;
      (** [(unix_s, cumulative fired)] window of ["engine.failure_points.fired"] *)
}

val snap_local : Tsdb.t -> snap

(** Polls [/health], [/summary] and [/series] on the endpoint. *)
val snap_remote : host:string -> port:int -> (snap, string) result

(** Per-interval deltas of a cumulative window as eight-level block
    glyphs; [""] for fewer than two points. *)
val sparkline : (float * float) list -> string

(** Render a snapshot as a few lines of text (no cursor control). *)
val render : ?width:int -> snap -> string

(** [redrawer oc] prints successive frames to [oc].  On a terminal each
    frame moves the cursor back up over the previous one and overwrites
    it in place; elsewhere frames are appended. *)
val redrawer : out_channel -> string -> unit
