type 'a t = { mu : Mutex.t; mutable items : 'a list; mutable n : int; bound : int }

let create ~bound = { mu = Mutex.create (); items = []; n = 0; bound = max 0 bound }

let take t ~make =
  Mutex.lock t.mu;
  match t.items with
  | x :: rest ->
    t.items <- rest;
    t.n <- t.n - 1;
    Mutex.unlock t.mu;
    x
  | [] ->
    Mutex.unlock t.mu;
    make ()

let give t x =
  Mutex.lock t.mu;
  if t.n < t.bound then begin
    t.items <- x :: t.items;
    t.n <- t.n + 1
  end;
  Mutex.unlock t.mu

let length t = t.n
