type t = { mutable events : Event.t array; mutable len : int }

let dummy = { Event.seq = 0; kind = Event.Sfence; loc = Xfd_util.Loc.unknown }

let create ?(capacity = 256) () = { events = Array.make (max 1 capacity) dummy; len = 0 }

let grow t =
  let bigger = Array.make (2 * Array.length t.events) dummy in
  Array.blit t.events 0 bigger 0 t.len;
  t.events <- bigger

let append t ev =
  if t.len = Array.length t.events then grow t;
  let idx = t.len in
  t.events.(idx) <- ev;
  t.len <- idx + 1;
  idx

let length t = t.len

(* The slots past [len] keep their old events until overwritten: a reader
   only ever sees [0 .. len), and the events themselves are immutable. *)
let clear t = t.len <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Arena.get: out of bounds";
  t.events.(i)

let iter_range t ~from ~upto f =
  let from = max 0 from and upto = min upto t.len in
  let events = t.events in
  for i = from to upto - 1 do
    f (Array.unsafe_get events i)
  done
