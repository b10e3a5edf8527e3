(** Flat bigarray-backed per-byte shadow metadata pages.

    The dynamic detector and the static analyzer both keep one small record
    per tracked PM byte.  Hash maps keyed by address made every replayed
    event chase pointers; this store packs the hot part of that record into
    a single byte inside 4 KiB pages (one [Bigarray] per page, allocated on
    first touch), with per-page bitmaps so "visit every writeback-pending
    byte" — the fence hot loop — walks set bits instead of the whole
    table.

    Bits 0–2 of the packed byte hold a state code — [Xfd.Pstate]'s code
    of the Fig. 9 persistence FSM, written through [Xfd.Pstore] by both
    the detector and the linter — and five flag bits are maintained
    mechanically.  A byte
    whose packed value is 0 is untracked; callers must set {!bit_tracked}
    on any byte they track so the value stays nonzero.  The [tracked] and
    [pending] bits are mirrored into per-page bitmaps and global counts by
    every kernel that stores.

    Stores go through range kernels that act on one page at a time: a
    kernel looks its page up once and loops over the bytes with no
    per-byte call or closure.  Each storing kernel leaves a
    change log — the address and previous packed value of every byte it
    stored — that its caller reads to keep its own per-byte fields
    (journals, histories) without testing the bytes again.

    Pages are process-globally accounted, like {!Image} chunks: the
    [shadow.page_bytes_live]/[shadow.page_bytes_peak] gauges expose the
    live footprint, and {!release} must be called when a store dies.  A
    released page joins a bounded free list the next store takes its
    pages from, as {!Image} recycles its chunks; a pooled page counts as
    freed.  Pages are looked up through an {!Xfd_util.Int_table}, so a
    read of a page nobody touched allocates nothing and raises nothing. *)

type t

val page_size : int (* 4096 *)

(** {1 Packed-byte format} *)

val state_of : int -> int
(** Bits 0–2: the state code, [0..7]. *)

val bit_tracked : int
val bit_pending : int
val bit_flag_a : int
val bit_flag_b : int
val bit_flag_c : int

val has : int -> int -> bool
(** [has packed bit] tests a flag bit (pass one of the [bit_*] masks). *)

(** {1 Store} *)

val create : unit -> t

val release : t -> unit
(** Drop every page and return their bytes to the global accounting.
    Idempotent. *)

val get : t -> Addr.t -> int
(** The packed byte; [0] when untracked / no page. *)

val tracked_bytes : t -> int
val pending_bytes : t -> int

val iter_tracked : t -> (Addr.t -> int -> unit) -> unit
(** [f addr packed] for every tracked byte, in increasing address order. *)

val offset : Addr.t -> int
(** Index of [addr] within its 4 KiB page. *)

(** {1 Kernels}

    A kernel that stores empties the change log first, then logs every
    byte it stores.  A restate rewrites a byte's state field and pending
    bit: [packed'] is [packed] with both cleared, or-ed with [bits].
    [states] selects bytes by state code: bit [s] of the mask admits
    code [s].  Ranges must lie inside one page; a kernel given one that
    does not raises [Invalid_argument]. *)

val update : t -> Addr.t -> int -> keep:int -> set:int -> unit
(** [update t addr n ~keep ~set] stores [(packed land keep) lor set]
    into each of the [n] bytes from [addr], tracked or not (creating the
    page on first use), and logs them all in increasing address order. *)

val scan : t -> Addr.t -> int -> int
(** [scan t addr n]: the mask of the state codes of the tracked bytes
    among the [n] from [addr] (bit [s] set when some byte is in state
    [s]); [0] when none is tracked.  Stores nothing. *)

val restate : t -> Addr.t -> int -> states:int -> bits:int -> unit
(** Restate the tracked bytes among the [n] from [addr] whose state is in
    [states]. *)

val restate_all : t -> pending:bool -> states:int -> bits:int -> unit
(** Restate every tracked byte whose state is in [states], walking the
    pending bitmaps in place when [pending] (only pending bytes are
    visited) and the tracked bitmaps otherwise. *)

val restate_list : t -> Addr.t array -> int -> states:int -> having:int -> bits:int -> unit
(** [restate_list t addrs n]: restate each of the first [n] addresses of
    [addrs] that is tracked, in a state of [states] and carries every bit
    of [having]. *)

val changes : t -> int
(** Entries in the change log. *)

val change_addrs : t -> Addr.t array
(** The logged addresses: entries [0 .. changes t - 1].  The arrays are
    the log's own and may be replaced by the next kernel. *)

val change_olds : t -> int array
(** The packed value each logged byte held before the kernel stored. *)

val restore : t -> Addr.t array -> int array -> int -> unit
(** [restore t addrs olds n] stores [olds.(i)] back at [addrs.(i)] for
    the first [n] entries, the last first — an undo log's unwinding.
    Logs nothing. *)

(** {1 Accounting} *)

val live_bytes : unit -> int
val peak_bytes : unit -> int

(** Released pages on the free list now; at most {!free_bound}. *)
val free_pages : unit -> int

(** Most pages the free list keeps (64: 256 KiB of bytes plus 128 KiB
    of bitmaps). *)
val free_bound : int
