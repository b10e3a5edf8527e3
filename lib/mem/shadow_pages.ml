module Obs = Xfd_obs.Obs

let page_bits = 12
let page_size = 1 lsl page_bits (* 4 KiB, matching Image chunks *)

(* Bitmap words are 32 bits wide so indices stay well inside OCaml's native
   int on every platform: 128 words cover one page. *)
let word_bits = 5
let words_per_page = page_size lsr word_bits

let g_live = Obs.Gauge.make "shadow.page_bytes_live"
let g_peak = Obs.Gauge.make "shadow.page_bytes_peak"

let live_bytes_a = Atomic.make 0
let peak_bytes_a = Atomic.make 0

let rec store_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

let account_alloc () =
  let live = Atomic.fetch_and_add live_bytes_a page_size + page_size in
  store_max peak_bytes_a live;
  Obs.Gauge.set g_live (float_of_int live);
  Obs.Gauge.set g_peak (float_of_int (Atomic.get peak_bytes_a))

let account_free () =
  let live = Atomic.fetch_and_add live_bytes_a (-page_size) - page_size in
  Obs.Gauge.set g_live (float_of_int live)

let live_bytes () = Atomic.get live_bytes_a
let peak_bytes () = Atomic.get peak_bytes_a

(* Packed-byte format: bits 0-2 caller state, bit 3 tracked, bit 4 pending,
   bits 5-7 caller flags. *)
let state_mask = 0b111
let state_of packed = packed land state_mask
let with_state packed s = packed land lnot state_mask lor (s land state_mask)
let bit_tracked = 0b0000_1000
let bit_pending = 0b0001_0000
let bit_flag_a = 0b0010_0000
let bit_flag_b = 0b0100_0000
let bit_flag_c = 0b1000_0000
let has packed bit = packed land bit <> 0

type bigstring =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type page = {
  base : int; (* address of the page's first byte *)
  bytes : bigstring;
  tracked_w : int array;
  pending_w : int array;
  mutable tracked_n : int;
  mutable pending_n : int;
}

type t = {
  pages : (int, page) Hashtbl.t; (* page index = addr lsr page_bits *)
  mutable last : page option; (* one-slot lookup cache for locality *)
  mutable tracked : int;
  mutable pending : int;
  mutable released : bool;
}

let create () =
  { pages = Hashtbl.create 16; last = None; tracked = 0; pending = 0; released = false }

let release t =
  if not t.released then begin
    t.released <- true;
    Hashtbl.iter (fun _ _ -> account_free ()) t.pages;
    Hashtbl.reset t.pages;
    t.last <- None;
    t.tracked <- 0;
    t.pending <- 0
  end

let page_index addr = addr lsr page_bits
let page_offset addr = addr land (page_size - 1)

(* Returns the cached option itself: a hit allocates nothing. *)
let find_page t addr =
  match t.last with
  | Some p as r when p.base = addr land lnot (page_size - 1) -> r
  | _ -> (
    match Hashtbl.find_opt t.pages (page_index addr) with
    | Some _ as r ->
      t.last <- r;
      r
    | None -> None)

let make_page t addr =
  let p =
    {
      base = addr land lnot (page_size - 1);
      bytes = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout page_size;
      tracked_w = Array.make words_per_page 0;
      pending_w = Array.make words_per_page 0;
      tracked_n = 0;
      pending_n = 0;
    }
  in
  Bigarray.Array1.fill p.bytes 0;
  Hashtbl.replace t.pages (page_index addr) p;
  t.last <- Some p;
  account_alloc ();
  p

let get t addr =
  match find_page t addr with
  | None -> 0
  | Some p -> Bigarray.Array1.unsafe_get p.bytes (page_offset addr)

let set t addr packed =
  let p =
    match find_page t addr with Some p -> p | None -> make_page t addr
  in
  let off = page_offset addr in
  let old = Bigarray.Array1.unsafe_get p.bytes off in
  if old <> packed then begin
    Bigarray.Array1.unsafe_set p.bytes off packed;
    let w = off lsr word_bits and bit = 1 lsl (off land ((1 lsl word_bits) - 1)) in
    let otr = old land bit_tracked <> 0 and ntr = packed land bit_tracked <> 0 in
    if otr <> ntr then begin
      let d = if ntr then 1 else -1 in
      p.tracked_w.(w) <- (if ntr then p.tracked_w.(w) lor bit else p.tracked_w.(w) land lnot bit);
      p.tracked_n <- p.tracked_n + d;
      t.tracked <- t.tracked + d
    end;
    let ope = old land bit_pending <> 0 and npe = packed land bit_pending <> 0 in
    if ope <> npe then begin
      let d = if npe then 1 else -1 in
      p.pending_w.(w) <- (if npe then p.pending_w.(w) lor bit else p.pending_w.(w) land lnot bit);
      p.pending_n <- p.pending_n + d;
      t.pending <- t.pending + d
    end
  end

let tracked_bytes t = t.tracked
let pending_bytes t = t.pending

let sorted_pages t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pages []
  |> List.sort (fun a b -> Int.compare a.base b.base)

(* Collect the set bits of [words] as addresses, in increasing order. *)
let bitmap_addrs p words =
  let out = ref [] in
  for w = words_per_page - 1 downto 0 do
    let m = words.(w) in
    if m <> 0 then
      for b = (1 lsl word_bits) - 1 downto 0 do
        if m land (1 lsl b) <> 0 then out := (p.base + (w lsl word_bits) + b) :: !out
      done
  done;
  !out

let pending_addrs t =
  List.concat_map
    (fun p -> if p.pending_n = 0 then [] else bitmap_addrs p p.pending_w)
    (sorted_pages t)

let iter_tracked t f =
  List.iter
    (fun p ->
      if p.tracked_n > 0 then
        List.iter
          (fun a -> f a (Bigarray.Array1.unsafe_get p.bytes (page_offset a)))
          (bitmap_addrs p p.tracked_w))
    (sorted_pages t)

let iter_line t line n f =
  match find_page t line with
  | None -> for i = 0 to n - 1 do f (line + i) 0 done
  | Some p ->
    let off = page_offset line in
    for i = 0 to n - 1 do
      f (line + i) (Bigarray.Array1.unsafe_get p.bytes (off + i))
    done
