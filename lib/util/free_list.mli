(** Bounded, domain-safe free lists of reusable buffers.

    A page-sized buffer the GC would collect is handed back here instead,
    and the next allocation of its kind takes it.  That keeps a run's
    short-lived 4 KiB pages out of the major heap's allocate-and-sweep
    cycle.  The list holds at most [bound] items; a buffer given to a full
    list is dropped for the GC, so the memory a list keeps beyond what is
    live is at most [bound] buffers.  A mutex guards every operation:
    the service's worker threads give and take concurrently. *)

type 'a t

(** [create ~bound]: an empty list holding at most [bound] items. *)
val create : bound:int -> 'a t

(** [take t ~make]: a pooled item, or [make ()] when the list is empty.
    The caller resets what it takes. *)
val take : 'a t -> make:(unit -> 'a) -> 'a

(** [give t x] pools [x], or drops it when the list is full.  The caller
    must hold no other reference to [x] that it will use again. *)
val give : 'a t -> 'a -> unit

(** Items currently pooled. *)
val length : 'a t -> int
