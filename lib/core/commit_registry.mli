(** Registry of commit variables and their associated address sets.

    A commit variable (paper section 3.2) is a PM location whose writes
    alter the consistency status of an associated set of addresses [Sx]
    (Eq. 2 requires the sets of distinct variables to be disjoint).  The
    registry records, per variable, the timestamps of its last two commit
    writes — [t_prelast] and [t_last] in the Eq. 3 rule — and answers the
    two queries the detector needs on every post-failure read: "is this byte
    itself part of a commit variable?" (such reads are benign cross-failure
    races) and "which variable's window governs this byte?".

    A base registry is persistent: byte ownership is kept as disjoint
    address segments, every update builds a new version, and the handle
    points at its current version.  Its registrations and writes cost
    O(log n) in the number of segments, never O(bytes).

    A {!fork} answers as a copy of its base taken at the fork, but copies
    nothing: it records what it registers, commits and defers in scratch
    the base owns (a flat table of variables and sorted segment arrays
    with room at both ends), and every query reads that scratch first,
    then the base's version, so the last registration of a byte still
    wins.  Forking empties the scratch in O(1).  Once the scratch has
    grown to a workload's size, a fork's registrations allocate nothing,
    and those arriving in ascending or descending address order (as
    [Tx.recover]'s do) move no entries.  At most one fork of a base is
    usable at a time: every call through a fork that a newer fork or
    {!rewind} retired raises [Invalid_argument]. *)

type t

val create : unit -> t

(** A fork of a base registry: it starts from the base's registrations,
    windows and deferred commits, and what it registers or commits never
    reaches the base.  The base may move on while the fork is in use;
    the fork keeps answering from the fork point.  Retires the previous
    fork of the same base.  Raises [Invalid_argument] on a fork. *)
val fork : t -> t

(** Retire this fork now (no-op on a base or an already retired fork). *)
val rewind : t -> unit

(** Register a commit variable (idempotent). *)
val register_var : t -> var:Xfd_mem.Addr.t -> size:int -> unit

exception Overlapping_commit_ranges of Xfd_mem.Addr.t * Xfd_mem.Addr.t
(** Raised by [register_range] when Eq. 2's disjointness is violated:
    carries the two clashing variables. *)

(** Associate a byte range with a registered variable (registers the
    variable implicitly if needed; exact re-registrations are ignored). *)
val register_range :
  t -> var:Xfd_mem.Addr.t -> addr:Xfd_mem.Addr.t -> size:int -> unit

(** Record that some write touched [addr..addr+size); any overlap with a
    registered variable is a commit write at timestamp [ts].  With
    [defer:true] the window does not move until {!apply_pending} — used
    when detection runs against strict crash images, where a commit write
    only becomes visible to the post-failure stage once persisted (this is
    Eq. 3's [<=p] ordering made operational).  [ev] is the trace index of
    the writing event, retained so provenance chains can name the commit
    writes that framed a window. *)
val on_write :
  t -> defer:bool -> addr:Xfd_mem.Addr.t -> size:int -> ts:int -> ev:int -> unit

(** Apply deferred commit writes (called at each ordering point). *)
val apply_pending : t -> unit

(** Drop deferred commit writes (a failure discards unpersisted commits;
    called when forking for a post-failure replay in strict mode). *)
val drop_pending : t -> unit

(** Is this byte inside a registered commit variable? *)
val is_commit_byte : t -> Xfd_mem.Addr.t -> bool

(** The commit window governing a byte, if it belongs to some [Sx]:
    [(t_prelast, t_last)], where a never-written variable yields [None]
    in the outer option's payload. *)
val window_for : t -> Xfd_mem.Addr.t -> (int * int) option option
(** [None] — byte not in any commit range; [Some None] — in a range whose
    variable has never been committed; [Some (Some (t_prelast, t_last))] —
    committed at least once ([t_prelast] is [-1] after a single commit). *)

(** Trace indices of the governing variable's last two commit writes —
    the events that framed the Eq. 3 window — for provenance chains.
    [None] if the byte is in no range or its variable was never committed;
    the first component is [-1] after a single commit. *)
val frame_for : t -> Xfd_mem.Addr.t -> (int * int) option

(** Number of registered variables. *)
val var_count : t -> int
