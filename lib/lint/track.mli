(** Shared per-line bookkeeping of the static analyses.

    One pass over a trace maintaining, per byte, the persistence state
    ({!Xfd.Pstate.t}, stepped by the same transfers and stored in the same
    {!Xfd.Pstore} layout as the dynamic detector's shadow) with the
    locations that produced it, as two words of the store's unscanned
    columns (the last store's epoch and writer, the capturing flush's
    epoch and location), plus transaction
    and detection-framing context (RoI, skip regions, TX depth and logged
    ranges, fence-epoch counter).  The rules that {!Xfd_baselines.Pmtest}
    and {!Lint} have in common — unlogged writes inside a transaction,
    redundant writebacks, duplicated TX_ADDs — fire here, through the
    [on_hit] callback, so the baseline and the linter cannot drift apart:
    both consume the same transitions.

    Semantics are byte-granular with line-granular flushes, exactly as the
    dynamic detector models them: a flush captures every dirty byte of its
    64-byte line; a fence orders every captured byte in the program and
    opens a new epoch.  Hits fire only while {!checking} (inside the RoI
    and outside skip regions), matching both consumers' reporting scope. *)

(** The rules shared between the PMTest baseline and the linter. *)
type hit =
  | Tx_unlogged_write of { loc : Xfd_util.Loc.t; addr : Xfd_mem.Addr.t; size : int }
      (** store inside a transaction to a range never TX_ADDed *)
  | Redundant_flush of {
      loc : Xfd_util.Loc.t;
      line : Xfd_mem.Addr.t;
      already : Xfd.Pstate.flush_waste;
    }
      (** flush of a line with no dirty byte: [Double_flush] when the line
          is captured and awaiting a fence (PMTest's "redundant
          writeback"), [Unnecessary_flush] when it is already durable —
          the detector's classification of the same flush *)
  | Duplicate_tx_add of { loc : Xfd_util.Loc.t; addr : Xfd_mem.Addr.t; size : int }
      (** TX_ADD overlapping a range already logged in this transaction
          (TX_XADD registrations never fire this, by design) *)

(** What the tracker knows about one written byte. *)
type info = {
  state : Xfd.Pstate.t;  (** [Modified], [Writeback_pending] or [Persisted] *)
  writer : Xfd_util.Loc.t;  (** location of the last store *)
  write_epoch : int;  (** fence epoch of the last store *)
  flush : (Xfd_util.Loc.t * int) option;
      (** capturing flush (location, epoch) when pending or persisted; for
          non-temporal stores this is the store itself *)
}

type t

(** [domain] selects the persistence-domain model for the transfer
    functions (default [Adr], the paper's semantics — byte-identical to
    the pre-parametric tracker).  Under [Eadr] stores are durable at store
    so every flush of written data fires [Redundant_flush
    Unnecessary_flush];
    under [Cxl_gpf] a flush is durable on arrival, fences are
    ordering-only, and the GPF barrier event persists every outstanding
    byte. *)
val create : ?domain:Xfd_trace.Domain_model.t -> ?on_hit:(hit -> unit) -> unit -> t

(** Return the tracker's flat shadow pages to the global
    [shadow.page_bytes_live] accounting.  Idempotent; call when the
    analysis is done with the tracker. *)
val release : t -> unit

(** Feed one trace event through the state machine (and fire hits). *)
val feed : t -> Xfd_trace.Event.t -> unit

(** Inside the RoI and outside every skip region — the scope in which
    shared rules report. *)
val checking : t -> bool

(** Fence epochs elapsed (a fence closes the current epoch).  A store
    or flush after more than [2{^32} - 2] of them raises
    [Invalid_argument]: the columns keep an epoch in 32 bits. *)
val epoch : t -> int

val in_tx : t -> bool

(** Events fed so far. *)
val events : t -> int

val info : t -> Xfd_mem.Addr.t -> info option

(** Bytes whose updates never reached PM: every byte still [Modified] or
    [Writeback_pending], in unspecified order.  PMTest's end-of-execution rule and
    the linter's unflushed/unfenced rules are both projections of this. *)
val unpersisted : t -> (Xfd_mem.Addr.t * info) list
