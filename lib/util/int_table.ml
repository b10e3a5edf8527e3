(* Linear probing over power-of-two arrays.  A slot is occupied when its
   stamp equals the table's epoch; stamps start at 0 and epochs at 1. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable mask : int;
  mutable epoch : int;
  mutable size : int;
}

let alloc cap = (Array.make cap 0, Array.make cap 0, Array.make cap 0)

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let keys, vals, stamps = alloc !cap in
  { keys; vals; stamps; mask = !cap - 1; epoch = 1; size = 0 }

let length t = t.size

(* Fibonacci hashing: consecutive addresses, the common key pattern,
   scatter instead of forming one long probe run. *)
let home t k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land t.mask

(* The slot holding [k], or the empty slot where it would go. *)
let slot t k =
  let i = ref (home t k) in
  while t.stamps.(!i) = t.epoch && t.keys.(!i) <> k do
    i := (!i + 1) land t.mask
  done;
  !i

let find t k =
  let i = slot t k in
  if t.stamps.(i) = t.epoch then t.vals.(i) else -1

let mem t k = t.stamps.(slot t k) = t.epoch

let rec replace t k v =
  let i = slot t k in
  if t.stamps.(i) = t.epoch then t.vals.(i) <- v
  else if 2 * (t.size + 1) > t.mask + 1 then begin
    grow t;
    replace t k v
  end
  else begin
    t.stamps.(i) <- t.epoch;
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

and grow t =
  let keys = t.keys and vals = t.vals and stamps = t.stamps and epoch = t.epoch in
  let cap = 2 * Array.length keys in
  let k', v', s' = alloc cap in
  t.keys <- k';
  t.vals <- v';
  t.stamps <- s';
  t.mask <- cap - 1;
  t.size <- 0;
  Array.iteri (fun i s -> if s = epoch then replace t keys.(i) vals.(i)) stamps

let clear t =
  t.epoch <- t.epoch + 1;
  t.size <- 0
