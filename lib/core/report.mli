(** Detection results: cross-failure bugs, performance bugs, and
    post-failure crash observations.

    A bug names the byte range, the reading instruction of the post-failure
    stage and the last pre-failure writer — the same fields XFDetector
    prints.  [Post_failure_error] records an exception escaping the
    post-failure program (e.g. the pool refusing to open after a failure
    mid-creation, which is how the paper's Bug 4 manifests, or the
    segmentation fault of the Figure 1 example).

    When detection runs with forensics enabled, every race/semantic/perf
    bug additionally carries a {!Xfd_forensics.Provenance.t} chain — the
    ordered pre-failure events (write, writeback, fence, framing commit
    writes, allocation) that explain the verdict, with trace-timeline
    excerpts.  The chain never participates in {!dedup_key}. *)

type race = {
  addr : Xfd_mem.Addr.t;
  size : int;
  read_loc : Xfd_util.Loc.t;
  write_loc : Xfd_util.Loc.t;
  uninit : bool;  (** allocated but never initialised (paper's Bug 2) *)
  provenance : Xfd_forensics.Provenance.t option;
}

type semantic = {
  addr : Xfd_mem.Addr.t;
  size : int;
  read_loc : Xfd_util.Loc.t;
  write_loc : Xfd_util.Loc.t;
  status : Cstate.t;  (** [Uncommitted] or [Stale] *)
  provenance : Xfd_forensics.Provenance.t option;
}

type perf = {
  addr : Xfd_mem.Addr.t;
  loc : Xfd_util.Loc.t;
  waste : [ `Flush of Pstate.flush_waste | `Duplicate_tx_add ];
  provenance : Xfd_forensics.Provenance.t option;
}

type bug =
  | Race of race
  | Semantic of semantic
  | Perf of perf
  | Post_failure_error of { exn : string; failure_point : int }

(** All bugs observed for one injected failure point. *)
type failure_report = { failure_point : int; trace_pos : int; bugs : bug list }

val is_race : bug -> bool
val is_semantic : bug -> bool
val is_perf : bug -> bool
val is_post_error : bug -> bool

(** The provenance chain attached to a bug, if forensics was on. *)
val provenance : bug -> Xfd_forensics.Provenance.t option

(** Deduplication key: bugs with the same kind and program points are the
    same programming error reported at several failure points. *)
val dedup_key : bug -> string

val pp_bug : Format.formatter -> bug -> unit

(** The bug line followed by its indented provenance chain and timeline
    excerpts (identical to {!pp_bug} plus a newline when the bug carries no
    chain). *)
val pp_bug_explained : Format.formatter -> bug -> unit

(** JSON form of one bug, for machine consumption (CI, dashboards). *)
val bug_to_json : bug -> Xfd_util.Json.t

val failure_report_to_json : failure_report -> Xfd_util.Json.t
