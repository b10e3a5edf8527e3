(** The per-byte persistence store shared by the dynamic detector
    ({!Shadow_pm}) and the linter ([Xfd_lint.Track]).

    Both keep, for every tracked PM byte, a {!Pstate.t} packed into
    {!Xfd_mem.Shadow_pages}: bits 0–2 hold {!Pstate.code}, [bit_tracked]
    is set on every tracked byte, and [bit_pending] is set exactly when the
    state is [Writeback_pending], so a fence walks the per-page pending
    bitmaps instead of every byte.  Cold per-byte fields of the owner's
    choosing live in one parallel ['m] page per touched 4 KiB page.

    This module owns that layout and the transfers that act on more than
    one byte: the write target, flush-line classification, fence
    promotion and the GPF barrier.  A transfer stores through the
    {!Xfd_mem.Shadow_pages} kernels, with no per-byte call or closure;
    its changes are in the pages' change log, which owners read to keep
    their own rules (journals, counters, histories, provenance).  Every
    transfer takes [~set], flag bits or-ed into each byte it stores. *)

type 'm t

(** [create ~domain make_meta]: an empty store interpreting events under
    [domain]; [make_meta ()] builds the cold fields of one page. *)
val create : domain:Xfd_trace.Domain_model.t -> (unit -> 'm) -> 'm t

val domain : 'm t -> Xfd_trace.Domain_model.t
val pages : 'm t -> Xfd_mem.Shadow_pages.t

(** Drop every page and return its bytes to the global accounting.
    Idempotent. *)
val release : 'm t -> unit

(** {1 Packed bytes} *)

(** The state of a packed byte. *)
val state : int -> Pstate.t

(** A freshly tracked byte in state [s], with no other flag. *)
val pack : Pstate.t -> int

(** {1 Cold per-byte fields} *)

(** Index of [addr] within its page's ['m] arrays. *)
val offset : Xfd_mem.Addr.t -> int

(** The cold fields of [addr]'s page, if the page was ever owned.  A
    one-entry cache makes runs of lookups on one page cheap; the rest
    go through an {!Xfd_util.Int_table}.  No lookup allocates or
    raises. *)
val meta : 'm t -> Xfd_mem.Addr.t -> 'm option

(** Like {!meta}, creating the page on first use. *)
val own_meta : 'm t -> Xfd_mem.Addr.t -> 'm

(** {1 Transfers} *)

(** The packed byte a store ([nt] for a non-temporal one) leaves.  In
    every model it does not depend on the byte's old state, so an owner
    stores it over a whole segment with
    {!Xfd_mem.Shadow_pages.update}. *)
val write_target : 'm t -> nt:bool -> int

(** Does a flushed modified byte land writeback-pending (rather than
    persisted)? *)
val flush_pends : 'm t -> bool

(** Flush the 64-byte [line] with one pass over its bytes that both
    classifies and restates: when it holds a modified byte, every
    modified byte takes its {!Pstate.on_flush_in} image (the change log
    lists them) and the answer is [`Had_modified].  Otherwise nothing is stored and the answer is the
    waste the flush represents ([Double_flush] when some byte is pending,
    else [Unnecessary_flush] when some byte is persisted), or [`Clean] for
    a line with neither (e.g. the untracked tail line of a range
    persist). *)
val flush_line :
  'm t ->
  Xfd_mem.Addr.t ->
  set:int ->
  [ `Had_modified | `Clean | `Waste of Pstate.flush_waste ]

(** A fence: when the model persists at a fence
    ({!Pstate.persists_at_fence}), promote every writeback-pending byte,
    walking the pending bitmaps in place.  Answers the number of bytes
    stored, [0] when the model does not persist.  With [~log:true] the
    change log lists them (and is untouched when the model does not
    persist); an owner that keeps no per-byte rule at a fence passes
    [false], so the log does not grow to a page's worth of entries. *)
val fence : 'm t -> set:int -> log:bool -> int

(** [fence_segments t addrs lens n ~having]: {!fence} restricted to the
    bytes of the first [n] segments, segment [i] being the [lens.(i)]
    bytes from [addrs.(i)] (inside one page), whose packed byte carries
    every bit of [having].  A byte in several segments is stored once:
    it is no longer pending the second time.  Logs nothing. *)
val fence_segments :
  'm t -> Xfd_mem.Addr.t array -> int array -> int -> having:int -> set:int -> int

(** The GPF barrier: when the model persists at one
    ({!Pstate.persists_at_gpf}), store the {!Pstate.on_gpf_in} image of
    every modified or writeback-pending byte, walking the tracked bitmaps
    in place.  Answers and logs the bytes stored as {!fence} does. *)
val gpf : 'm t -> set:int -> log:bool -> int

(** [gpf_segments t addrs lens n ~having]: {!gpf} restricted as
    {!fence_segments} restricts {!fence}. *)
val gpf_segments :
  'm t -> Xfd_mem.Addr.t array -> int array -> int -> having:int -> set:int -> int

(** [f addr packed] for every modified or writeback-pending byte, in
    increasing address order. *)
val iter_outstanding : 'm t -> (Xfd_mem.Addr.t -> int -> unit) -> unit
