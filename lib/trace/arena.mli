(** Append-only event arena with stable indices.

    The single flat backing store for a run's events: appending never
    moves an index, so a failure point is fully described by an arena
    index (plus the detector's delta journal), and replay iterates a flat
    array slice instead of chasing list cells or re-checking bounds per
    event.  {!Trace} is a thin view over one arena. *)

type t

val create : ?capacity:int -> unit -> t

(** Append, returning the event's stable index ([= length] before the
    call). *)
val append : t -> Event.t -> int

val length : t -> int

(** Empty the arena in O(1), keeping its backing array: the next append
    takes index 0 again.  Events already handed out stay valid (they are
    immutable); only indices into the old contents stop resolving. *)
val clear : t -> unit

(** Bounds-checked lookup. *)
val get : t -> int -> Event.t

(** [iter_range t ~from ~upto f] applies [f] to events [from .. upto-1]
    ([upto] exclusive), clamped to the arena; the hot loop does one bounds
    computation for the whole slice. *)
val iter_range : t -> from:int -> upto:int -> (Event.t -> unit) -> unit
