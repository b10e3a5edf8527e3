(** Flat bigarray-backed per-byte shadow metadata pages.

    The dynamic detector and the static analyzer both keep one small record
    per tracked PM byte.  Hash maps keyed by address made every replayed
    event chase pointers; this store packs the hot part of that record into
    a single byte inside 4 KiB pages (one [Bigarray] per page, allocated on
    first touch), with per-page bitmaps so "iterate every writeback-pending
    byte" — the fence hot loop — touches only set bits instead of the whole
    table.

    Bits 0–2 of the packed byte hold a state code — [Xfd.Pstate]'s code
    of the Fig. 9 persistence FSM, written through [Xfd.Pstore] by both
    the detector and the linter — and five flag bits are maintained
    mechanically.  A byte
    whose packed value is 0 is untracked; callers must set {!bit_tracked}
    on any byte they track so the value stays nonzero.  The [tracked] and
    [pending] bits are mirrored into per-page bitmaps and global counts on
    every {!set}.

    Pages are process-globally accounted, like {!Image} chunks: the
    [shadow.page_bytes_live]/[shadow.page_bytes_peak] gauges expose the
    live footprint, and {!release} must be called when a store dies. *)

type t

val page_size : int (* 4096 *)

(** {1 Packed-byte format} *)

val state_of : int -> int
(** Bits 0–2: the state code, [0..7]. *)

val with_state : int -> int -> int
(** [with_state packed s] replaces the state field. *)

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

val set : t -> Addr.t -> int -> unit
(** Store a packed byte, keeping the tracked/pending bitmaps and counts in
    sync with the byte's [bit_tracked]/[bit_pending] flags. *)

val tracked_bytes : t -> int
val pending_bytes : t -> int

val pending_addrs : t -> Addr.t list
(** Addresses whose pending bit is set, in increasing order.  Safe to
    {!set} (e.g. clear) while consuming the list. *)

val iter_tracked : t -> (Addr.t -> int -> unit) -> unit
(** [f addr packed] for every tracked byte, in increasing address order.
    The callback must not create pages. *)

val iter_line : t -> Addr.t -> int -> (Addr.t -> int -> unit) -> unit
(** [iter_line t line n f]: [f addr packed] for each of the [n] bytes from
    [line], including untracked ones (packed [0]); never allocates pages.
    The range must not cross a page boundary (cache lines never do). *)

(** {1 Accounting} *)

val live_bytes : unit -> int
val peak_bytes : unit -> int
