(** An append-only buffer of {!Event.t}.

    The frontend appends as the program runs; the backend replays either the
    whole buffer or the prefix up to a failure point.  The pre-failure trace
    is shared across failure points (the paper's incremental tracing): each
    failure point only records the prefix length it corresponds to — an
    {!Arena} index into the single flat backing store. *)

type t

val create : unit -> t

(** The flat backing store; event [seq] numbers are arena indices. *)
val arena : t -> Arena.t

(** Append an event; the sequence number is assigned automatically. *)
val append : t -> kind:Event.kind -> loc:Xfd_util.Loc.t -> Event.t

val length : t -> int

(** Empty the trace in O(1), keeping its buffer, so one trace can record
    many runs in turn without allocating a new buffer per run.  Sequence
    numbers restart at 0. *)
val clear : t -> unit

val get : t -> int -> Event.t

(** [iter_range t ~from ~upto f] applies [f] to events
    [from .. upto-1], clamped; the replay hot loop (one flat slice, no
    per-event bounds checks). *)
val iter_range : t -> from:int -> upto:int -> (Event.t -> unit) -> unit

(** [iter_prefix t n f] applies [f] to events [0 .. n-1]. *)
val iter_prefix : t -> int -> (Event.t -> unit) -> unit

val iter : t -> (Event.t -> unit) -> unit
val to_list : t -> Event.t list

type counts = {
  writes : int;
  reads : int;
  flushes : int;
  fences : int;
  tx_ops : int;
  annotations : int;
}

val counts : t -> counts
val pp : Format.formatter -> t -> unit

(** Serialize to / parse from the one-line-per-event text format. *)
val save : t -> out_channel -> unit

(** Blank lines are skipped; [Error (n, line)] is the first line that is
    not an event, numbered from 1. *)
val load : in_channel -> (t, int * string) result
