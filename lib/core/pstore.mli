(** The per-byte persistence store shared by the dynamic detector
    ({!Shadow_pm}) and the linter ([Xfd_lint.Track]).

    Both keep, for every tracked PM byte, a {!Pstate.t} packed into
    {!Xfd_mem.Shadow_pages}: bits 0–2 hold {!Pstate.code}, [bit_tracked]
    is set on every tracked byte, and [bit_pending] is set exactly when the
    state is [Writeback_pending], so a fence walks the per-page pending
    bitmaps instead of every byte.  Cold per-byte fields of the owner's
    choosing live in one parallel ['m] page per touched 4 KiB page.

    This module owns that layout and the transfers that act on more than
    one byte: flush-line classification, fence promotion and the GPF
    barrier.  Owners keep their own rules (journals, counters, histories,
    hits): a transfer computes each byte's new packed value and hands it to
    the owner's {!store} callback, which writes it. *)

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
    one-entry cache makes runs of lookups on one page cheap. *)
val meta : 'm t -> Xfd_mem.Addr.t -> 'm option

(** Like {!meta}, creating the page on first use. *)
val own_meta : 'm t -> Xfd_mem.Addr.t -> 'm

(** [own_range t addr size f] calls [f m off n] once per page the range
    touches: its [n] bytes start at index [off] of that page's cold fields
    [m] (created on first use).  Owners fill a store's worth of fields
    this way without a lookup per byte. *)
val own_range : 'm t -> Xfd_mem.Addr.t -> int -> ('m -> int -> int -> unit) -> unit

(** {1 Transfers} *)

(** [store addr ~old packed] writes [packed] over [old] at [addr]. *)
type store = Xfd_mem.Addr.t -> old:int -> int -> unit

(** Flush the 64-byte [line]: when it holds a modified byte, store every
    modified byte's {!Pstate.on_flush_in} image and answer
    [`Had_modified].  Otherwise nothing is stored and the answer is the
    waste the flush represents ([Double_flush] when some byte is pending,
    else [Unnecessary_flush] when some byte is persisted), or [`Clean] for
    a line with neither (e.g. the untracked tail line of a range
    persist). *)
val flush_line :
  'm t ->
  Xfd_mem.Addr.t ->
  store ->
  [ `Had_modified | `Clean | `Waste of Pstate.flush_waste ]

(** [promote t addr store]: the {!Pstate.on_fence_in} image of [addr],
    if it is still writeback-pending. *)
val promote : 'm t -> Xfd_mem.Addr.t -> store -> unit

(** A fence: promote every writeback-pending byte, when the model persists
    at a fence ({!Pstate.persists_at_fence}). *)
val fence : 'm t -> store -> unit

(** The GPF barrier: when the model persists at one
    ({!Pstate.persists_at_gpf}), store the {!Pstate.on_gpf_in} image of
    every {!outstanding} byte.  Targets are collected before anything is
    stored. *)
val gpf : 'm t -> store -> unit

(** Every modified or writeback-pending byte, in decreasing address
    order. *)
val outstanding : 'm t -> Xfd_mem.Addr.t list
