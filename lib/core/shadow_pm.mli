(** The shadow PM: per-byte detection state (paper section 5.4).

    For every byte the pre-failure execution touched, the shadow records the
    Figure 9 persistence state, the timestamp of the last modification (for
    the Eq. 3 consistency rule), the source location of the last writer (for
    bug reports), whether the byte is allocated-but-uninitialised, and
    whether the post-failure stage has already overwritten it.

    State lives in a {!Pstore} (one packed byte per tracked PM byte in
    flat {!Xfd_mem.Shadow_pages}, plus per-page pending bitmaps), not in a
    hash map, so replay is cache-friendly and the fence hot loop touches
    only pending bytes.  The cold fields — [tlast] and the writer — are
    one word per byte in the store's unscanned columns, the writer by id
    in the store's location table.  The linter's tracker shares both
    layouts and the {!Pstate} transfers; the divergence journal, the
    provenance histories and FSM counters are this module's own.

    [overlay] creates the store's single rewindable divergence: the
    backend advances one canonical pre-failure shadow event-by-event and
    forks a journaled view for each failure point's post-failure replay.
    Post-failure mutations are captured in an O(delta) undo journal of
    page segments: before a store, raw allocation or flush changes a run
    of bytes, the run's packed bytes and cold words are copied out with
    blits.  Unwinding it restores the canonical prefix exactly, one
    segment at a time, so nothing is ever re-replayed and the base is
    never polluted by post-failure state.  The journal unwinds
    explicitly via {!rewind}, or automatically as soon as the base layer
    mutates again or a new overlay is created; reading or mutating
    through a rewound overlay raises [Invalid_argument].  While a
    divergence is live, reads through the base handle resolve journaled
    bytes to their pre-divergence values (the earliest segment holding
    the byte).

    The journal and the location table's fork entries are scratch the
    store owns: a rewind empties the one and truncates the other (through
    {!Pstore.truncate_locs}) without shrinking either, so forks stop
    allocating once they have grown to the workload's size. *)

type cell = {
  pstate : Pstate.t;
  tlast : int;
  writer : Xfd_util.Loc.t;
  uninit : bool;  (** allocated raw, never written since *)
  post_written : bool;
  hist : Xfd_forensics.History.t option;
      (** bounded provenance history (trace indices of the last writes,
          writeback, fence and allocation), from a table only a shadow
          created with [~forensics:true] keeps.  Shared by reference with
          overlay views — overlays never record into it. *)
}
(** An immutable snapshot of one byte's state at lookup time. *)

type t

(** [create ~forensics:true] attaches a {!Xfd_forensics.History.t} to every
    byte this (base) layer touches and records write/flush/fence/alloc
    trace indices into it during replay.  [domain] selects the
    persistence-domain model the transfer functions interpret events under
    (default [Adr], byte-identical to the pre-parametric shadow). *)
val create : ?forensics:bool -> ?domain:Xfd_trace.Domain_model.t -> unit -> t

(** The persistence-domain model this shadow was created with (shared by
    its overlays). *)
val domain : t -> Xfd_trace.Domain_model.t

(** Journaled copy-on-write fork reading through to [t].  Creating a new
    overlay (or mutating through the base handle) rewinds any previous
    live overlay first: at most one divergence is live per store. *)
val overlay : t -> t

(** Unwind this overlay's divergence journal, restoring the canonical
    pre-failure state byte-for-byte.  No-op on a base handle or an
    already-rewound overlay. *)
val rewind : t -> unit

(** [false] exactly for an overlay whose divergence was rewound or
    superseded by a newer overlay: every read or write through it
    raises. *)
val live : t -> bool

(** Drop the store's pages and return their bytes to the global
    [shadow.page_bytes_live] accounting.  Idempotent. *)
val release : t -> unit

(** Read-only lookup (never copies).  [None] means the byte was never
    touched: reading it cannot be a cross-failure bug.  Raises
    [Invalid_argument] through a rewound overlay. *)
val find : t -> Xfd_mem.Addr.t -> cell option

(** {1 Reads that do not allocate}

    The fields of {!find}'s cell, one at a time, for the detector's
    per-byte check.  Each raises [Invalid_argument] through a rewound
    overlay. *)

(** The byte's packed state; [0] when it was never touched. *)
val packed : t -> Xfd_mem.Addr.t -> int

(** Decoders of a nonzero {!packed} value. *)
val pstate : int -> Pstate.t

val uninit : int -> bool
val post_written : int -> bool

(** [tlast] and [writer] of the byte ([-1] and {!Xfd_util.Loc.unknown}
    when never written). *)
val tlast : t -> Xfd_mem.Addr.t -> int

val writer : t -> Xfd_mem.Addr.t -> Xfd_util.Loc.t

(** [write t addr size ~ts ~ev ~loc ~nt ~post] applies a store to the
    [size] bytes from [addr].  [ev] is the trace index of the writing
    event (recorded into the provenance history when forensics is on;
    otherwise ignored).  [ts] is kept in 32 bits: it must be at least
    0 and below 2{^32} - 1, else [Invalid_argument]. *)
val write :
  t ->
  Xfd_mem.Addr.t ->
  int ->
  ts:int ->
  ev:int ->
  loc:Xfd_util.Loc.t ->
  nt:bool ->
  post:bool ->
  unit

(** [flush_line t line] captures the line's modified bytes and reports what
    the flush found, for performance-bug classification: [`Had_modified]
    (useful flush), [`Clean] (line never tracked — e.g. the tail line of a
    range persist; not a bug), or the waste category: flushing a line whose
    bytes are all pending ([Double_flush]) or already persisted
    ([Unnecessary_flush]). *)
val flush_line :
  t ->
  Xfd_mem.Addr.t ->
  ev:int ->
  [ `Had_modified | `Clean | `Waste of Pstate.flush_waste ]

(** Promote every writeback-pending byte captured in this shadow (or fork)
    to persisted.  A fork's fence promotes only bytes the fork itself made
    pending: base-pending bytes stay pending for the canonical prefix. *)
val fence : t -> ev:int -> unit

(** The global persistent flush barrier: where the model persists at it
    ({!Pstate.persists_at_gpf}), promote {e every} outstanding (modified
    or writeback-pending) byte to persisted; elsewhere it is inert.  A
    fork's GPF drains only the outstanding bytes the fork itself wrote:
    data the crash dropped stays dropped. *)
val gpf : t -> ev:int -> unit

(** Mark a freshly (re-)allocated raw payload: bytes become
    unmodified/uninitialised regardless of their history. *)
val mark_alloc_raw : t -> Xfd_mem.Addr.t -> int -> ev:int -> unit

(** Number of tracked bytes in this layer: all touched bytes for a base
    handle, the distinct bytes its journal holds for a live overlay (0
    once rewound). *)
val tracked_bytes : t -> int

(** Writeback-pending bytes in the store, the live divergence's
    included: the count the fence's pending bitmaps keep.  [0] through a
    rewound overlay. *)
val pending_bytes : t -> int

(** [iter_tracked t f] calls [f addr cell] for every tracked byte in
    increasing address order, through this handle's view. *)
val iter_tracked : t -> (Xfd_mem.Addr.t -> cell -> unit) -> unit
