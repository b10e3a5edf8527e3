(** Open-addressing tables from [int] keys to [int] values, built for
    scratch that is filled, read and emptied many times over.

    The polymorphic [Hashtbl] pays a [caml_hash] call per lookup and
    allocates a bucket per binding.  This table hashes with a multiply
    and a shift, stores keys and values in flat arrays, and empties in
    O(1): every slot carries the epoch that wrote it, and {!clear} starts
    a new epoch.  Once the arrays have grown to a workload's size, a
    cycle of inserts, lookups and a clear allocates nothing. *)

type t

(** [create n]: an empty table sized for about [n] bindings before it
    first grows. *)
val create : int -> t

(** Number of bindings. *)
val length : t -> int

(** [find t k] is the value bound to [k], or [-1] when [k] is unbound
    (so keep values non-negative where absence matters). *)
val find : t -> int -> int

val mem : t -> int -> bool

(** Bind [k] to [v], replacing any previous binding. *)
val replace : t -> int -> int -> unit

(** Remove every binding, in O(1) and without shrinking the arrays. *)
val clear : t -> unit
