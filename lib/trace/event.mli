(** Trace events emitted by the instrumented execution frontend.

    Each entry records the operation kind, the PM address range it touches
    and the source location of the instruction (the paper's "instruction
    pointer", used for backtracing bugs).  Library-level events (TX_*,
    allocation) let the backend trace PMDK-style code at function granularity
    while user code is traced at instruction granularity (paper section 5.3). *)

type kind =
  | Write of { addr : Xfd_mem.Addr.t; size : int }
  | Read of { addr : Xfd_mem.Addr.t; size : int }
  | Nt_write of { addr : Xfd_mem.Addr.t; size : int }
  | Clwb of { addr : Xfd_mem.Addr.t }
  | Clflush of { addr : Xfd_mem.Addr.t }
  | Clflushopt of { addr : Xfd_mem.Addr.t }
  | Sfence
  | Mfence
  | Gpf
      (** global persistent flush barrier (CXL).  Persists every outstanding
          byte under {!Domain_model.t.Cxl_gpf}; inert under ADR/eADR. *)
  | Tx_begin
  | Tx_add of { addr : Xfd_mem.Addr.t; size : int }
  | Tx_xadd of { addr : Xfd_mem.Addr.t; size : int }
      (** no-snapshot range registration (fresh objects persisted at commit) *)
  | Tx_commit
  | Tx_abort
  | Tx_alloc of { addr : Xfd_mem.Addr.t; size : int; zeroed : bool }
  | Tx_free of { addr : Xfd_mem.Addr.t }
  | Commit_var of { addr : Xfd_mem.Addr.t; size : int }
      (** registration of a commit variable (addCommitVar) *)
  | Commit_range of {
      var : Xfd_mem.Addr.t;
      addr : Xfd_mem.Addr.t;
      size : int;
    }  (** association of a range with a commit variable (addCommitRange) *)
  | Roi_begin
  | Roi_end
  | Skip_detection_begin
  | Skip_detection_end
  | Marker of string  (** free-form annotation, kept for debugging *)

type t = { seq : int; kind : kind; loc : Xfd_util.Loc.t }

(** True for events that access or modify PM contents (the events between
    which failure points are worth injecting; annotations do not count). *)
val is_pm_operation : kind -> bool

(** True for the flush family (CLWB, CLFLUSH, CLFLUSHOPT). *)
val is_flush : kind -> bool

(** True for fences, i.e. ordering points in the sense of section 4.2. *)
val is_fence : kind -> bool

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit

(** One-line machine-readable form, parseable by {!of_line}.  Free-form
    text (marker bodies, file names) is escaped so that field separators
    ('|', spaces) and line terminators occurring in it round-trip; legacy
    lines without escapes parse unchanged. *)
val to_line : t -> string

(** [None] for anything that is not an event line, a bad number included. *)
val of_line : string -> t option
