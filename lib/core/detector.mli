(** The detection backend (paper section 5.4).

    The backend replays traces against the shadow PM.  The pre-failure trace
    is replayed incrementally, once: between failure points the engine
    advances the base detector to the failure point's trace position, then
    {!fork_for_post} creates a cheap copy-on-write fork into which the
    corresponding post-failure trace is replayed and checked.  Forks see the
    exact shadow state at their failure point; the base is never polluted by
    post-failure writes.

    Checks implemented:
    - post-failure reads: consistency state first, then persistence state —
      a read is reported as a cross-failure semantic bug when the byte is
      persisted but outside its commit window (Eq. 3), as a cross-failure
      race when it is not guaranteed persisted, and not at all when it is a
      commit-variable byte (benign race), was overwritten by the post-failure
      stage itself, or was never touched;
    - performance bugs during replay: flushes of lines with nothing to write
      back, and duplicated TX_ADDs within one transaction;
    - only the first post-failure read of each byte is checked
      (section 5.4 optimisation 1). *)

type t

(** [commit_at] selects when a write to a commit variable moves the Eq. 3
    window: [`Write] (the paper's implementation; matches detection on full
    crash images, where the post-failure stage observes the newest flag
    value) or [`Persist] (matches strict crash images, where only persisted
    flag values survive — Eq. 3's [<=p] made operational).  The engine picks
    the mode matching its crash mode.

    [forensics] attaches bounded provenance histories to shadow cells and
    makes every recorded Race/Semantic/Perf bug carry a
    {!Xfd_forensics.Provenance.t} chain resolved against the replayed
    traces.  Off by default: with it off the per-byte cost is one extra
    word and bugs carry no chain.

    [domain] selects the persistence-domain model of the shadow FSM
    (default [Adr]).  The GPF barrier event is honoured only under
    [Cxl_gpf]; elsewhere it is inert. *)
val create :
  ?check_perf:bool ->
  ?commit_at:[ `Write | `Persist ] ->
  ?forensics:bool ->
  ?domain:Xfd_trace.Domain_model.t ->
  unit ->
  t

(** [replay t trace ~from ~upto] replays events [from .. upto-1]. *)
val replay : t -> Xfd_trace.Trace.t -> from:int -> upto:int -> unit

(** Fork for one failure point's post-failure replay, at a cost that does
    not grow with the base's state.  The fork's shadow is a journaled
    divergence of the base shadow: at most one fork is live at a time,
    and advancing the base (or forking again) unwinds the previous fork's
    journal first — recorded bugs stay valid, but replaying further events
    into the stale fork raises [Invalid_argument].  The fork's commit
    registry is a {!Commit_registry.fork}: it starts from the base's
    registrations and windows (less deferred commits, which a failure
    discards), and what the post-failure stage registers or commits never
    reaches the base.  Forks share the base's scratch (the shadow's
    journal, the set of checked bytes, the registry's fork scratch),
    emptied at every fork, so once the scratch has grown to the
    workload's size a fork allocates nothing, and neither do the 128
    undo-log flags a [Tx.recover] registers in it. *)
val fork_for_post : t -> t

(** Unwind this fork's divergence journal now and retire its registry
    (no-op on a base detector): the base shadow is restored byte-for-byte
    to the fork point. *)
val rewind : t -> unit

(** Release the underlying shadow pages (idempotent; call on detectors
    whose run is abandoned or complete so [shadow.page_bytes_live] returns
    to zero). *)
val release : t -> unit

(** Bugs recorded by this detector (or fork), oldest first. *)
val bugs : t -> Report.bug list

(** Current global timestamp (one tick per ordering point). *)
val timestamp : t -> int

(** Expose the shadow cell of an address, for tests and debugging
    (raises [Invalid_argument] on a stale fork). *)
val probe : t -> Xfd_mem.Addr.t -> Shadow_pm.cell option

(** The commit-variable registry (for tests). *)
val registry : t -> Commit_registry.t

(** The underlying shadow store (for the equivalence oracle in tests). *)
val shadow : t -> Shadow_pm.t
