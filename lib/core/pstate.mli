(** Persistence state of a PM byte — the paper's Figure 9 state machine.

    [Unmodified] — never written (or freshly re-allocated); [Modified] —
    written, not captured by any flush; [Writeback_pending] — captured by a
    CLWB-family instruction, not yet ordered; [Persisted] — guaranteed
    durable.  Only [Persisted] data may be read after a failure without
    racing.

    This is the one definition of the FSM: the dynamic detector's
    {!Shadow_pm} and the linter's [Xfd_lint.Track] both step their bytes
    through these transfers, over the shared {!Pstore} layout. *)

type t = Unmodified | Modified | Writeback_pending | Persisted

(** Flushing a line containing no modified byte wastes a writeback; the
    detector and the linter classify such flushes (the yellow edges in
    Figure 9). *)
type flush_waste =
  | Double_flush  (** line already captured, awaiting a fence *)
  | Unnecessary_flush  (** line unmodified or already persisted *)

(** Transfers, parametric over the persistence-domain model.  Under [Adr]
    (the paper's semantics) a store dirties, a flush captures a modified
    byte, a fence orders a captured one and non-temporal stores go
    straight to writeback-pending.  Under [Eadr] stores land [Persisted]
    and flush/fence are persistence no-ops; under [Cxl_gpf] a flush (or
    non-temporal store) is durable on arrival at the device, fences order
    without persisting, and {!on_gpf_in} models the global persistent
    flush barrier.  Outside [Adr], [Writeback_pending] is unreachable. *)

val on_write_in : Xfd_trace.Domain_model.t -> t -> t
val on_nt_write_in : Xfd_trace.Domain_model.t -> t -> t
val on_flush_in : Xfd_trace.Domain_model.t -> t -> t
val on_fence_in : Xfd_trace.Domain_model.t -> t -> t
val on_gpf_in : Xfd_trace.Domain_model.t -> t -> t

(** Does a fence persist writeback-pending bytes under this model? *)
val persists_at_fence : Xfd_trace.Domain_model.t -> bool

(** Does the GPF barrier persist outstanding bytes under this model?
    Elsewhere the barrier is inert. *)
val persists_at_gpf : Xfd_trace.Domain_model.t -> bool

(** The packed 3-bit state code stored in {!Xfd_mem.Shadow_pages} bytes:
    [Unmodified] is 0, [Modified] 1, [Writeback_pending] 2, [Persisted] 3.
    [of_code] maps any other value to [Unmodified]. *)
val code : t -> int

val of_code : int -> t

val is_persisted : t -> bool
val equal : t -> t -> bool
val to_string : t -> string
