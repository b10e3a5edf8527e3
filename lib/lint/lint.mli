(** Flow-sensitive static crash-consistency analysis over traces and
    programs.

    XFDetector finds cross-failure bugs dynamically, by injecting a failure
    at every ordering point and re-executing recovery — thorough, but the
    cost grows with failure points × replay cost (the paper's §7 names this
    the scalability bottleneck).  Most real PM bugs, however, follow a small
    set of statically recognizable ordering/durability patterns (WITCHER;
    Hasan's PM bug study).  This module is the zero-execution complement: a
    single abstract-interpretation pass over the trace IR tracking per-byte
    {!Xfd.Pstate} persistence state (with line-granular flushes), fence
    epochs, TX logging context and commit-variable protocol state, firing
    eight rules.

    The linter is deliberately {e unsound as a filter} — a clean lint does
    not prove the absence of cross-failure bugs (a fence skipped between two
    later-refenced stores leaves no end-state evidence, yet opens a real
    race window).  It is therefore used to {e prioritize} failure points,
    never to prune them, and {!triage_of} quantifies exactly what it would have
    missed by cross-checking against the dynamic detector. *)

(** Everything the linter can complain about. *)
type rule =
  | Missing_flush_before_commit_store
      (** commit-variable store while associated range bytes are not yet
          fenced-persistent *)
  | Flush_without_ordering_fence
      (** writeback (or non-temporal store) never ordered by a fence *)
  | Store_to_committed_in_epoch
      (** store to committed data in the same fence epoch as the last
          commit store — not ordered before the commit (Eq. 3) *)
  | Write_not_tx_added  (** store inside a TX to a range never TX_ADDed *)
  | Unflushed_at_trace_end  (** store never captured by any writeback *)
  | Commit_var_never_persisted
      (** commit variable stored but not durable at end of trace *)
  | Redundant_flush  (** flush of a line with nothing dirty *)
  | Duplicate_tx_add  (** TX_ADD of an already-logged range *)

(** [Error]: a must-violation of a commit/logging protocol.  [Warning]: a
    may-race — whether it bites depends on what recovery reads.  [Perf]:
    wasted work, never a correctness issue. *)
type severity = Error | Warning | Perf

val all_rules : rule list

(** Stable kebab-case identifier, e.g.
    ["missing-flush-before-commit-store"]. *)
val rule_id : rule -> string

val rule_of_id : string -> rule option
val severity_of : rule -> severity

(** Per-rule severity under a persistence-domain model.  [severity_in Adr]
    is {!severity_of}.  The only reinterpretation today: on eADR hardware
    every flush of written data is pure overhead, so [Redundant_flush] is
    promoted from [Perf] to [Warning].  Rules a model makes vacuous (e.g.
    [Missing_flush_before_commit_store] under eADR) simply never fire —
    their transfer functions can no longer reach the offending state. *)
val severity_in : Xfd_trace.Domain_model.t -> rule -> severity

type finding = {
  rule : rule;
  severity : severity;
  loc : Xfd_util.Loc.t;  (** the instruction the rule indicts *)
  addr : Xfd_mem.Addr.t;
  size : int;
  index : int option;
      (** trace index of the firing event; [None] for end-of-trace rules *)
  related : (string * Xfd_util.Loc.t) list;
      (** named co-implicated locations (["writer"], ["writeback"],
          ["commit-store"], ...) — the static analogue of a provenance
          chain, and what {!triage_of} matches dynamic verdicts against *)
  hint : string;  (** one fix-hint sentence *)
}

type report = {
  findings : finding list;  (** in firing order, deduplicated *)
  events : int;  (** trace events analysed *)
  errors : int;
  warnings : int;
  perf : int;
}

val clean : report -> bool

(** Deduplication key of a finding (rule id + location), mirroring
    {!Xfd.Report.dedup_key}'s role for dynamic bugs. *)
val finding_key : finding -> string

(** Analyse a recorded trace under a persistence-domain model (default
    [Adr] — byte-identical to the pre-parametric analyzer). *)
val check_trace : ?domain:Xfd_trace.Domain_model.t -> Xfd_trace.Trace.t -> report

(** The setup and pre-failure trace {!check_prog} analyses, recorded as
    it does. *)
val pre_trace : ?config:Xfd.Config.t -> Xfd.Engine.program -> Xfd_trace.Trace.t

(** Trace the program's [setup] and [pre] stages (honouring the
    configuration's fault injection, library trust and strategy — but with
    no failure injection and no detection) and analyse the trace under the
    configuration's [domain].  This is the zero-replay entry: one
    execution, no snapshots, no post-failure runs. *)
val check_prog : ?config:Xfd.Config.t -> Xfd.Engine.program -> report

(** {1 Differential analysis across persistence-domain models} *)

(** How one finding key behaves across the analysed models, relative to
    the baseline: [`Stable] — fires under every model; [`Appears_in ms] —
    absent under the baseline, fires under [ms]; [`Disappears_in ms] —
    fires under the baseline but not under [ms].  The appear/disappear
    sets are exactly the CXL-era findings the ADR-only analysis cannot
    express. *)
type classification =
  [ `Stable
  | `Appears_in of Xfd_trace.Domain_model.t list
  | `Disappears_in of Xfd_trace.Domain_model.t list ]

type diff_entry = {
  key : string;  (** {!finding_key} the entry is aligned on *)
  entry_rule : rule;
  entry_loc : Xfd_util.Loc.t;
  by_model : (Xfd_trace.Domain_model.t * finding option) list;
      (** the finding under each analysed model, [None] where it does not
          fire; one pair per model, in report order *)
  classification : classification;
}

type diff_report = {
  baseline : Xfd_trace.Domain_model.t;
  models : Xfd_trace.Domain_model.t list;
  reports : (Xfd_trace.Domain_model.t * report) list;
  entries : diff_entry list;  (** first-appearance order *)
}

(** Run the analyzer once per model over the same trace and align findings
    by {!finding_key}.  Defaults: baseline [Adr], models
    {!Xfd_trace.Domain_model.all}.  The baseline is prepended to [models]
    when absent. *)
val diff_domains :
  ?baseline:Xfd_trace.Domain_model.t ->
  ?models:Xfd_trace.Domain_model.t list ->
  Xfd_trace.Trace.t ->
  diff_report

(** Every analysed model reported zero findings. *)
val diff_clean : diff_report -> bool

(** {1 Cross-checking against the dynamic detector} *)

(** Rule ids of the findings that anticipate this dynamic verdict: a
    race/semantic bug is anticipated by a correctness finding naming its
    pre-failure writer (as [loc] or [related]); a performance bug by the
    matching waste rule at the same instruction.  Post-failure errors are
    never anticipated. *)
val anticipates : report -> Xfd.Report.bug -> string list

type triage = {
  program : string;
  lint : report;
  outcome : Xfd.Engine.outcome;
  dynamic : (string * Xfd.Report.bug * string list) list;
      (** (dedup key, bug, anticipating rule ids) per unique dynamic
          verdict, post-failure errors excluded *)
  statics : (finding * string list) list;
      (** (finding, confirming dynamic dedup keys) per lint finding *)
  anticipated : int;  (** dynamic verdicts with ≥1 anticipating finding *)
  static_misses : int;  (** dynamic verdicts no finding anticipated *)
  confirmed : int;  (** findings confirmed by ≥1 dynamic verdict *)
  static_only : int;  (** findings no dynamic verdict confirmed *)
  post_errors : int;  (** dynamic post-failure errors (outside the table) *)
}

(** Classify a lint report against a detection outcome of the same program
    and configuration, in both directions — the static-vs-dynamic
    precision/recall table. *)
val triage_of : program:string -> report -> Xfd.Engine.outcome -> triage

(** {1 Lint-guided failure-point scheduling} *)

(** Priority function for {!Xfd.Engine.detect}'s [?priority] argument:
    scores each failure point by the number of lint findings whose firing
    event falls in the trace window since the previous failure point
    (end-of-trace findings score the final point).  Points with findings in
    their window are post-executed first; the verdict {e set} is unchanged
    by construction — scheduling reorders work, it never skips any. *)
val priority_of : report -> (int * int) list -> int list

(** [check_prog] then [Xfd.Engine.detect ~priority:(priority_of report)]:
    lint findings steer which failure points are post-executed first. *)
val detect_guided :
  ?config:Xfd.Config.t ->
  ?on_progress:(Xfd.Engine.progress -> unit) ->
  Xfd.Engine.program ->
  report * Xfd.Engine.outcome

(** {1 Output} *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit
val pp_diff : Format.formatter -> diff_report -> unit
val pp_triage : Format.formatter -> triage -> unit
val finding_to_json : finding -> Xfd_util.Json.t
val report_to_json : report -> Xfd_util.Json.t
val diff_to_json : diff_report -> Xfd_util.Json.t
val triage_to_json : triage -> Xfd_util.Json.t
