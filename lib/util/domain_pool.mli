(** One process-wide pool of helper domains for batches of independent
    items.

    The helpers are spawned on first use and never joined: between
    batches they park on a condition variable.  The process never holds
    more than {!cap} of them, [Domain.recommended_domain_count () - 1],
    because every minor collection stops every domain, parked ones
    included, and a domain beyond the cores only adds to that pause.

    A batch is one [work] function that claims items from a counter it
    shares with its own copies until none are left (see {!run}).  The
    caller runs [work] itself and enlists helpers to run it beside it.
    A helper busy with another batch is not waited for: once the
    caller's own [work] returns, every enlisted helper that has not
    started is withdrawn, and only those already running are awaited.
    So two batches submitted at once (say, by two threads of one
    service) never wait on each other, and a batch whose helpers are all
    busy runs on its caller alone. *)

(** The most helper domains the process will hold. *)
val cap : int

(** [run ~helpers work] runs [work ()] on the calling thread and on at
    most [min helpers cap] helpers at once, and returns once the caller's
    [work] has returned and every helper that started it has too.  [work]
    must be safe to run concurrently with itself and must return once
    the batch has no unclaimed items.  A helper joining late therefore
    finds nothing left and returns at once.  Returns the number of
    helpers that ran [work].  If any run of [work] raises, the caller's
    exception, else the first helper's, is re-raised after every started
    run has returned. *)
val run : helpers:int -> (unit -> unit) -> int

(** Helper domains spawned so far in this process (at most {!cap}). *)
val domains : unit -> int
