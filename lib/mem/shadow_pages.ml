module Obs = Xfd_obs.Obs

let page_bits = 12
let page_size = 1 lsl page_bits (* 4 KiB, matching Image chunks *)

(* Bitmap words are 32 bits wide so indices stay well inside OCaml's native
   int on every platform: 128 words cover one page. *)
let word_bits = 5
let word_size = 1 lsl word_bits
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
let bit_tracked = 0b0000_1000
let bit_pending = 0b0001_0000
let bit_flag_a = 0b0010_0000
let bit_flag_b = 0b0100_0000
let bit_flag_c = 0b1000_0000
let has packed bit = packed land bit <> 0

type bytes = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type page = {
  mutable base : int; (* address of the page's first byte *)
  bytes : bytes;
  tracked_w : int array;
  pending_w : int array;
  mutable tracked_n : int;
  mutable pending_n : int;
}

type t = {
  (* Page index ([addr lsr page_bits]) to the page's slot in [all]; a
     miss is -1, so a lookup allocates nothing and raises nothing. *)
  index : Xfd_util.Int_table.t;
  (* Every page, in creation order: the fence and GPF walks run over this
     without a closure. *)
  mutable all : page array;
  mutable n_pages : int;
  mutable last : page; (* one-slot lookup cache for locality *)
  mutable tracked : int;
  mutable pending : int;
  (* The change log: the address and previous packed value of every byte
     the last {!update} or restate stored, in the order stored. *)
  mutable log_addr : int array;
  mutable log_old : int array;
  mutable log_n : int;
  mutable released : bool;
}

let log_capacity = 64

let new_page () =
  {
    base = 0;
    bytes = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout page_size;
    tracked_w = Array.make words_per_page 0;
    pending_w = Array.make words_per_page 0;
    tracked_n = 0;
    pending_n = 0;
  }

(* What a lookup of a page nobody made returns: its base is no page's. *)
let no_page =
  let p = new_page () in
  p.base <- -1;
  p

(* Released pages are recycled, bitmaps and all, as {!Image} recycles its
   chunks: each is a 4 KiB bigarray plus 2 KiB of bitmaps, and a detect
   makes a fresh store per detector.  A detect of this repository's
   workloads touches 19-22 pages, so 64 (384 KiB) cover the two detects
   the service runs at once. *)
let free_bound = 64
let free : page Xfd_util.Free_list.t = Xfd_util.Free_list.create ~bound:free_bound
let free_pages () = Xfd_util.Free_list.length free

let create () =
  {
    index = Xfd_util.Int_table.create 16;
    all = [||];
    n_pages = 0;
    last = no_page;
    tracked = 0;
    pending = 0;
    log_addr = Array.make log_capacity 0;
    log_old = Array.make log_capacity 0;
    log_n = 0;
    released = false;
  }

let release t =
  if not t.released then begin
    t.released <- true;
    for k = 0 to t.n_pages - 1 do
      account_free ();
      Xfd_util.Free_list.give free t.all.(k)
    done;
    Xfd_util.Int_table.clear t.index;
    t.all <- [||];
    t.n_pages <- 0;
    t.last <- no_page;
    t.tracked <- 0;
    t.pending <- 0;
    t.log_n <- 0
  end

let page_index addr = addr lsr page_bits
let offset addr = addr land (page_size - 1)

(* The page holding [addr], or [no_page]. *)
let find_page t addr =
  if t.last.base = addr land lnot (page_size - 1) then t.last
  else
    let slot = Xfd_util.Int_table.find t.index (page_index addr) in
    if slot < 0 then no_page
    else begin
      let p = Array.unsafe_get t.all slot in
      t.last <- p;
      p
    end

let make_page t addr =
  let p = Xfd_util.Free_list.take free ~make:new_page in
  p.base <- addr land lnot (page_size - 1);
  Bigarray.Array1.fill p.bytes 0;
  Array.fill p.tracked_w 0 words_per_page 0;
  Array.fill p.pending_w 0 words_per_page 0;
  p.tracked_n <- 0;
  p.pending_n <- 0;
  Xfd_util.Int_table.replace t.index (page_index addr) t.n_pages;
  t.last <- p;
  if t.n_pages = Array.length t.all then begin
    let all = Array.make (max 8 (2 * t.n_pages)) p in
    Array.blit t.all 0 all 0 t.n_pages;
    t.all <- all
  end;
  t.all.(t.n_pages) <- p;
  t.n_pages <- t.n_pages + 1;
  account_alloc ();
  p

let own_page t addr =
  let p = find_page t addr in
  if p == no_page then make_page t addr else p

let get t addr =
  let p = find_page t addr in
  if p == no_page then 0 else Bigarray.Array1.unsafe_get p.bytes (offset addr)

let tracked_bytes t = t.tracked
let pending_bytes t = t.pending

(* ------------------------------------------------------------------ *)
(* Kernels.  Every store goes through [store], which keeps the bitmaps
   and counts in step with the byte's tracked and pending bits. *)

let store t p off ob nb =
  Bigarray.Array1.unsafe_set p.bytes off nb;
  let d = ob lxor nb in
  if d land (bit_tracked lor bit_pending) <> 0 then begin
    let w = off lsr word_bits and bit = 1 lsl (off land (word_size - 1)) in
    if d land bit_tracked <> 0 then begin
      let dn = if nb land bit_tracked <> 0 then 1 else -1 in
      p.tracked_w.(w) <- p.tracked_w.(w) lxor bit;
      p.tracked_n <- p.tracked_n + dn;
      t.tracked <- t.tracked + dn
    end;
    if d land bit_pending <> 0 then begin
      let dn = if nb land bit_pending <> 0 then 1 else -1 in
      p.pending_w.(w) <- p.pending_w.(w) lxor bit;
      p.pending_n <- p.pending_n + dn;
      t.pending <- t.pending + dn
    end
  end

(* Room for [k] more log entries. *)
let reserve t k =
  let need = t.log_n + k in
  if need > Array.length t.log_addr then begin
    let cap = ref (Array.length t.log_addr) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let grow a =
      let a' = Array.make !cap 0 in
      Array.blit a 0 a' 0 t.log_n;
      a'
    in
    t.log_addr <- grow t.log_addr;
    t.log_old <- grow t.log_old
  end

(* Append after [reserve]. *)
let log t addr old =
  Array.unsafe_set t.log_addr t.log_n addr;
  Array.unsafe_set t.log_old t.log_n old;
  t.log_n <- t.log_n + 1

let check_range what off n =
  if off < 0 || n < 0 || off + n > page_size then
    invalid_arg (Printf.sprintf "Shadow_pages.%s: [%d, %d) is not inside a page" what off (off + n))

let update t addr n ~keep ~set =
  let off = offset addr in
  check_range "update" off n;
  let p = own_page t addr in
  t.log_n <- 0;
  reserve t n;
  for i = off to off + n - 1 do
    let ob = Bigarray.Array1.unsafe_get p.bytes i in
    store t p i ob (ob land keep lor set);
    log t (p.base + i) ob
  done

let in_states states b = (states lsr (b land state_mask)) land 1 <> 0

let scan t addr n =
  check_range "scan" (offset addr) n;
  let p = find_page t addr in
  if p == no_page then 0
  else
    let mask = ref 0 in
    for i = offset addr to offset addr + n - 1 do
      let b = Bigarray.Array1.unsafe_get p.bytes i in
      if b <> 0 then mask := !mask lor (1 lsl (b land state_mask))
    done;
    !mask

(* Restate byte [off] of [p] when it is tracked, its state is in [states]
   and it carries every bit of [having]; the caller has reserved a log
   entry. *)
let restate_byte t p off ~states ~having ~bits =
  let b = Bigarray.Array1.unsafe_get p.bytes off in
  if b <> 0 && in_states states b && b land having = having then begin
    store t p off b (b land lnot (state_mask lor bit_pending) lor bits);
    log t (p.base + off) b
  end

let restate t addr n ~states ~bits =
  check_range "restate" (offset addr) n;
  t.log_n <- 0;
  let p = find_page t addr in
  if p != no_page then begin
    reserve t n;
    for i = offset addr to offset addr + n - 1 do
      restate_byte t p i ~states ~having:0 ~bits
    done
  end

(* Each bitmap word is read once, before any of its bytes is restated, so
   clearing bits while walking is safe. *)
let restate_all t ~pending ~states ~bits =
  t.log_n <- 0;
  for k = 0 to t.n_pages - 1 do
    let p = t.all.(k) in
    let words = if pending then p.pending_w else p.tracked_w in
    let n = if pending then p.pending_n else p.tracked_n in
    if n > 0 then begin
      reserve t n;
      for w = 0 to words_per_page - 1 do
        let m = words.(w) in
        if m <> 0 then
          for b = 0 to word_size - 1 do
            if m land (1 lsl b) <> 0 then
              restate_byte t p ((w lsl word_bits) lor b) ~states ~having:0 ~bits
          done
      done
    end
  done

let restate_list t addrs n ~states ~having ~bits =
  t.log_n <- 0;
  reserve t n;
  for i = 0 to n - 1 do
    let a = addrs.(i) in
    let p = find_page t a in
    if p != no_page then restate_byte t p (offset a) ~states ~having ~bits
  done

let changes t = t.log_n
let change_addrs t = t.log_addr
let change_olds t = t.log_old

let restore t addrs olds n =
  for i = n - 1 downto 0 do
    let a = addrs.(i) in
    let p = own_page t a in
    let off = offset a in
    store t p off (Bigarray.Array1.unsafe_get p.bytes off) olds.(i)
  done

let iter_tracked t f =
  let pages = Array.sub t.all 0 t.n_pages in
  Array.sort (fun a b -> Int.compare a.base b.base) pages;
  Array.iter
    (fun p ->
      if p.tracked_n > 0 then
        for w = 0 to words_per_page - 1 do
          let m = p.tracked_w.(w) in
          if m <> 0 then
            for b = 0 to word_size - 1 do
              if m land (1 lsl b) <> 0 then begin
                let off = (w lsl word_bits) lor b in
                f (p.base + off) (Bigarray.Array1.unsafe_get p.bytes off)
              end
            done
        done)
    pages
