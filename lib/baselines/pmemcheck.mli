(** A pmemcheck-style checker (Intel's Valgrind tool), the second
    prior-work baseline.

    Pmemcheck tracks stores to PM and reports those that were not made
    persistent (flushed and fenced) by the end of the run, plus flushes of
    non-dirty lines ("superfluous flush").  Like PMTest it sees only the
    pre-failure execution, so it cannot catch cross-failure semantic bugs or
    recovery mistakes. *)

type issue = {
  loc : Xfd_util.Loc.t;  (** the store left behind *)
  addr : Xfd_mem.Addr.t;
  bytes : int;  (** number of non-persisted bytes from this store site *)
  kind : [ `Not_persisted | `Superfluous_flush ];
}

type result = { issues : issue list; stores_tracked : int }

val check : Xfd_trace.Trace.t -> result

(** Trace the program's pre-failure stage and check it; returns wall time. *)
val run : Xfd.Engine.program -> result * float
