(** The per-byte persistence store shared by the dynamic detector
    ({!Shadow_pm}) and the linter ([Xfd_lint.Track]).

    Both keep, for every tracked PM byte, a {!Pstate.t} packed into
    {!Xfd_mem.Shadow_pages}: bits 0–2 hold {!Pstate.code}, [bit_tracked]
    is set on every tracked byte, and [bit_pending] is set exactly when the
    state is [Writeback_pending], so a fence walks the per-page pending
    bitmaps instead of every byte.

    Cold per-byte fields live in one unscanned [Bytes] column per
    touched 4 KiB page, [words] 8-byte words per PM byte, each holding
    [stamp + 1] in its low 32 bits and a location's id in the store's
    location table above them, all zero while unset.  The shadow keeps
    one word ([tlast] and the writer), the linter's tracker two (the
    last store's epoch and writer; the capturing flush's epoch and
    location).

    This module owns both layouts and the transfers that act on more than
    one byte: the write target, flush-line classification, fence
    promotion and the GPF barrier.  A transfer stores through the
    {!Xfd_mem.Shadow_pages} kernels, with no per-byte call or closure;
    its changes are in the pages' change log, which owners read to keep
    their own rules (journals, counters, histories, provenance).  Every
    transfer takes [~set], flag bits or-ed into each byte it stores. *)

type t

(** [create ~domain ~words]: an empty store interpreting events under
    [domain], with [words] cold fields per PM byte. *)
val create : domain:Xfd_trace.Domain_model.t -> words:int -> t

val domain : t -> Xfd_trace.Domain_model.t
val pages : t -> Xfd_mem.Shadow_pages.t

(** Drop every page and location and return the pages' bytes to the
    global accounting.  Idempotent. *)
val release : t -> unit

(** {1 Packed bytes} *)

(** The state of a packed byte. *)
val state : int -> Pstate.t

(** A freshly tracked byte in state [s], with no other flag. *)
val pack : Pstate.t -> int

(** {1 Cold per-byte fields}

    Each column hangs off its {!Xfd_mem.Shadow_pages} page: a lookup is
    the page's, cached, allocating nothing and raising nothing. *)

(** Field [word] of [addr] ([0] when never set). *)
val word_at : t -> word:int -> Xfd_mem.Addr.t -> int

(** [fill_at t ~word addr n w] stores [w] as field [word] of the [n]
    bytes from [addr] (inside one page). *)
val fill_at : t -> word:int -> Xfd_mem.Addr.t -> int -> int -> unit

(** [set_logged t ~word k w] stores [w] as field [word] of the first [k]
    bytes of the pages' change log. *)
val set_logged : t -> word:int -> int -> int -> unit

(** [save_words t addr n dst at] copies field [0] of the [n] bytes from
    [addr] (inside one page) to words [at ..] of [dst], zeros where the
    page has no column; [restore_words t src at addr n] copies them
    back, and [get b i] reads word [i] of such a copy. *)
val save_words : t -> Xfd_mem.Addr.t -> int -> Bytes.t -> int -> unit

val restore_words : t -> Bytes.t -> int -> Xfd_mem.Addr.t -> int -> unit
val get : Bytes.t -> int -> int

(** [word t ~stamp loc], never [0], interns [loc] in the location table
    (id [0] is {!Xfd_util.Loc.unknown}; a location is appended unless it
    is physically the one interned last).  Raises [Invalid_argument]
    unless [0 <= stamp < 2{^32} - 1].  {!stamp} and {!loc} decode a
    word, [0] to [-1] and {!Xfd_util.Loc.unknown}. *)
val word : t -> stamp:int -> Xfd_util.Loc.t -> int

val stamp : int -> int
val loc : t -> int -> Xfd_util.Loc.t

(** Ids in use in the location table; [truncate_locs t n] drops every id
    from [n] on and empties the one-entry cache, so no later intern
    answers a dropped id. *)
val locs : t -> int

val truncate_locs : t -> int -> unit

(** {1 Transfers} *)

(** The packed byte a store ([nt] for a non-temporal one) leaves.  In
    every model it does not depend on the byte's old state, so an owner
    stores it over a whole segment with
    {!Xfd_mem.Shadow_pages.update}. *)
val write_target : t -> nt:bool -> int

(** Does a flushed modified byte land writeback-pending (rather than
    persisted)? *)
val flush_pends : t -> bool

(** Flush the 64-byte [line] with one pass over its bytes that both
    classifies and restates: when it holds a modified byte, every
    modified byte takes its {!Pstate.on_flush_in} image (the change log
    lists them) and the answer is [`Had_modified].  Otherwise nothing is stored and the answer is the
    waste the flush represents ([Double_flush] when some byte is pending,
    else [Unnecessary_flush] when some byte is persisted), or [`Clean] for
    a line with neither (e.g. the untracked tail line of a range
    persist). *)
val flush_line :
  t ->
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
val fence : t -> set:int -> log:bool -> int

(** [fence_segments t addrs lens n ~having]: {!fence} restricted to the
    bytes of the first [n] segments, segment [i] being the [lens.(i)]
    bytes from [addrs.(i)] (inside one page), whose packed byte carries
    every bit of [having].  A byte in several segments is stored once:
    it is no longer pending the second time.  Logs nothing. *)
val fence_segments :
  t -> Xfd_mem.Addr.t array -> int array -> int -> having:int -> set:int -> int

(** The GPF barrier: when the model persists at one
    ({!Pstate.persists_at_gpf}), store the {!Pstate.on_gpf_in} image of
    every modified or writeback-pending byte, walking the tracked bitmaps
    in place.  Answers and logs the bytes stored as {!fence} does. *)
val gpf : t -> set:int -> log:bool -> int

(** [gpf_segments t addrs lens n ~having]: {!gpf} restricted as
    {!fence_segments} restricts {!fence}. *)
val gpf_segments :
  t -> Xfd_mem.Addr.t array -> int array -> int -> having:int -> set:int -> int

(** [f addr packed] for every modified or writeback-pending byte, in
    increasing address order. *)
val iter_outstanding : t -> (Xfd_mem.Addr.t -> int -> unit) -> unit
