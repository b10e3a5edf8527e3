(** Flat per-byte shadow metadata pages.

    The dynamic detector and the static analyzer both keep one small record
    per tracked PM byte.  Hash maps keyed by address made every replayed
    event chase pointers; this store packs the hot part of that record into
    a single byte inside 4 KiB pages (one [Bytes] per page, allocated on
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
    kernel looks its page up once and works a bitmap word (32 bytes) at
    a time, with no per-byte call or closure.  The segment kernels
    ({!update}, {!restore}) store a whole segment with one fill or blit
    and then rewrite the bitmap words it covers, counting the changed
    bits with a popcount.  The restating kernels, which pick bytes by
    state, classify 8 bytes at a time with word arithmetic, restate the
    bytes picked and rewrite the pending word once; {!scan_restate} (and
    {!restate_all} when asked) leaves a change log — the address and
    previous packed value of every byte stored — that the caller reads
    to keep its own per-byte fields (journals, histories) without
    testing the bytes again.

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

val column : t -> Addr.t -> Bytes.t
val own_column : t -> Addr.t -> int -> Bytes.t
(** The cold-field column of [addr]'s page ([Xfd.Pstore] lays it out),
    [Bytes.empty] when it has none; [own_column t addr n] creates the
    page and an all-zero [n]-byte column on first use.  {!release} drops
    the columns. *)

(** {1 Kernels}

    {!scan_restate}, and {!restate_all} when asked to, empty the change
    log first, then log every byte they store; the other kernels leave
    the log alone.  A restate
    rewrites a byte's state field and pending bit: [packed'] is [packed]
    with both cleared, or-ed with [bits].  [states] selects bytes by
    state code: bit [s] of the mask admits code [s].  Ranges must lie
    inside one page; a kernel given one that does not raises
    [Invalid_argument]. *)

val update : t -> Addr.t -> int -> keep:int -> set:int -> unit
(** [update t addr n ~keep ~set] stores [(packed land keep) lor set]
    into each of the [n] bytes from [addr], tracked or not (creating the
    page on first use): a fill when [keep = 0].  [keep] must not hold
    {!bit_tracked} or {!bit_pending} (else [Invalid_argument]), so the
    segment's bitmap bits follow from [set] alone. *)

val blit_out : t -> Addr.t -> int -> Bytes.t -> int -> unit
(** [blit_out t addr n dst doff] copies the [n] packed bytes from [addr]
    into [dst] at [doff] ([0]s where the page does not exist). *)

val restore : t -> Addr.t -> int -> Bytes.t -> int -> unit
(** [restore t addr n src soff] stores the [n] packed bytes of [src]
    from [soff] back at [addr] — one segment of an undo log's unwinding —
    and rebuilds the bitmap bits they cover from them. *)

val scan_restate : t -> Addr.t -> int -> states:int -> bits:int -> int
(** [scan_restate t addr n ~states ~bits] restates the tracked bytes
    among the [n] from [addr] whose state is in [states], and answers
    the mask of the state codes those tracked bytes held before (bit [s]
    set when some byte was in state [s]; [0] when none is tracked).  One
    pass classifies and restates. *)

val restate : t -> Addr.t -> int -> states:int -> having:int -> bits:int -> int
(** Restate the tracked bytes among the [n] from [addr] whose state is
    in [states] and that carry every bit of [having]; answers how many
    were stored. *)

val restate_all : t -> pending:bool -> states:int -> bits:int -> log:bool -> int
(** Restate every tracked byte whose state is in [states], walking the
    pending bitmaps in place when [pending] (only pending bytes are
    visited) and the tracked bitmaps otherwise; answers how many were
    stored, and logs them when [log]. *)

val changes : t -> int
(** Entries in the change log. *)

val change_addrs : t -> Addr.t array
(** The logged addresses: entries [0 .. changes t - 1].  The arrays are
    the log's own and may be replaced by the next kernel. *)

val change_olds : t -> int array
(** The packed value each logged byte held before the kernel stored. *)

(** {1 Accounting} *)

val live_bytes : unit -> int
val peak_bytes : unit -> int

(** Released pages on the free list now; at most {!free_bound}. *)
val free_pages : unit -> int

(** Most pages the free list keeps (64: 256 KiB of bytes plus 128 KiB
    of bitmaps). *)
val free_bound : int
