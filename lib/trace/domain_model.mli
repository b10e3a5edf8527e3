(** Persistence-domain models.

    The paper's Fig. 9 FSM hard-codes the ADR platform contract: a store is
    volatile until flushed, a flush is volatile until fenced.  Newer
    platforms move the persistence boundary ("Rethinking PM Crash
    Consistency in the CXL Era"):

    - {b ADR} — today's semantics.  Flush then fence, or the data is lost.
    - {b eADR} — the CPU cache is inside the persistence domain: data is
      durable the moment it is stored.  Flushes and fences still execute but
      buy nothing; every flush of written data is pure waste.
    - {b CXL-GPF} — the device-persistence boundary sits at the CXL device:
      a flush (or non-temporal store) that reaches the device is durable on
      arrival, because the device's Global Persistent Flush drains its
      internal buffers on power failure.  Fences order but do not persist.
      The explicit GPF barrier event ({!Event.kind.Gpf}) persists every
      outstanding byte at once.

    The one persistence FSM ({!Xfd.Pstate}), which the detector's shadow
    (via [Config.domain]) and the linter share, takes the model as a
    parameter to its transfer functions; traces are never rewritten
    (DESIGN.md decision 18). *)

type t = Adr | Eadr | Cxl_gpf

(** Every model, in canonical (and CLI documentation) order:
    ADR, eADR, CXL-GPF. *)
val all : t list

val equal : t -> t -> bool
val compare : t -> t -> int

(** ["adr"], ["eadr"], ["cxl-gpf"] — stable tokens used by the CLI
    [--domain] flag, JSON reports and bench rows. *)
val to_string : t -> string

(** Inverse of {!to_string}; case-insensitive, also accepts the
    ["cxl_gpf"]/["gpf"] spellings.  [None] for anything else. *)
val of_string : string -> t option

val pp : Format.formatter -> t -> unit

(** One-sentence human description of the model's persistence contract. *)
val describe : t -> string
