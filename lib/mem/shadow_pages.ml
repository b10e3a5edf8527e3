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
let tracked_shift = 3
let bit_tracked = 1 lsl tracked_shift
let pending_shift = 4
let bit_pending = 1 lsl pending_shift
let bit_flag_a = 0b0010_0000
let bit_flag_b = 0b0100_0000
let bit_flag_c = 0b1000_0000
let has packed bit = packed land bit <> 0

type page = {
  mutable base : int; (* address of the page's first byte *)
  bytes : Bytes.t;
  tracked_w : int array;
  pending_w : int array;
  mutable tracked_n : int;
  mutable pending_n : int;
  mutable column : Bytes.t; (* the owner's cold fields, [Bytes.empty] until owned *)
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
     the last restate stored, in the order stored. *)
  mutable log_addr : int array;
  mutable log_old : int array;
  mutable log_n : int;
  mutable released : bool;
}

let log_capacity = 64

let new_page () =
  {
    base = 0;
    bytes = Bytes.create page_size;
    tracked_w = Array.make words_per_page 0;
    pending_w = Array.make words_per_page 0;
    tracked_n = 0;
    pending_n = 0;
    column = Bytes.empty;
  }

(* What a lookup of a page nobody made returns: its base is no page's. *)
let no_page =
  let p = new_page () in
  p.base <- -1;
  p

(* Released pages are recycled, bitmaps and all, as {!Image} recycles its
   chunks: each is 4 KiB of bytes plus 2 KiB of bitmaps, and a detect
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
      t.all.(k).column <- Bytes.empty;
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
  Bytes.fill p.bytes 0 page_size '\000';
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

let column t addr = (find_page t addr).column

let own_column t addr n =
  let p = own_page t addr in
  if p.column == Bytes.empty then p.column <- Bytes.make n '\000';
  p.column

let byte p off = Char.code (Bytes.unsafe_get p.bytes off)

let get t addr =
  let p = find_page t addr in
  if p == no_page then 0 else byte p (offset addr)

let tracked_bytes t = t.tracked
let pending_bytes t = t.pending

(* ------------------------------------------------------------------ *)
(* Kernels.  Every kernel stores its bytes, then rewrites the bitmap
   words they fall in, and the counts with them, a word at a time, so
   the bitmaps stay in step with the bytes' tracked and pending bits. *)

let set_byte p off b = Bytes.unsafe_set p.bytes off (Char.unsafe_chr b)

(* Bits set in a 32-bit word. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f in
  ((x * 0x0101_0101) lsr 24) land 0xff

(* Bitmap word [w] covers bytes [first w, first (w + 1)) of its page;
   [lo w off] and [hi w stop] clip those to a segment [off, stop). *)
let[@inline] first w = w lsl word_bits
let[@inline] lo w off = if off > first w then off else first w
let[@inline] hi w stop = if stop < first (w + 1) then stop else first (w + 1)

(* The bits of bytes [lo, hi) in their word, [hi - lo <= word_size]. *)
let[@inline] span lo hi = ((1 lsl (hi - lo)) - 1) lsl (lo land (word_size - 1))

(* Replace the [mask] bits of bitmap word [w] by [bits]; answers the
   change in set bits. *)
let[@inline] put_bits words w mask bits =
  let old = Array.unsafe_get words w in
  let nw = old land lnot mask lor bits in
  Array.unsafe_set words w nw;
  popcount nw - popcount old

let count t p ~tracked ~pending =
  p.tracked_n <- p.tracked_n + tracked;
  t.tracked <- t.tracked + tracked;
  p.pending_n <- p.pending_n + pending;
  t.pending <- t.pending + pending

(* Set or clear the tracked and the pending bits of bytes [off, stop) of
   [p], a word at a time. *)
let fill_bits t p off stop ~tracked ~pending =
  let dt = ref 0 and dp = ref 0 in
  for w = off lsr word_bits to (stop - 1) lsr word_bits do
    let m = span (lo w off) (hi w stop) in
    dt := !dt + put_bits p.tracked_w w m (if tracked then m else 0);
    dp := !dp + put_bits p.pending_w w m (if pending then m else 0)
  done;
  count t p ~tracked:!dt ~pending:!dp

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let lanes = 0x0101_0101_0101_0101L

(* The 8 bytes from [i] of [p], byte [i + k] in bits [8k, 8k + 8). *)
let[@inline] load8 p i =
  let x = get64 p.bytes i in
  if Sys.big_endian then bswap64 x else x

(* Bit [8k] of [l] for each [k], gathered into bit [k]: one multiply. *)
let[@inline] gather_lanes l =
  Int64.to_int (Int64.shift_right_logical (Int64.mul l 0x0102_0408_1020_4080L) 56)

(* Bit [shift] of each of the 8 bytes from [i] of [p], as 8 bits. *)
let[@inline] gather8 p i shift =
  gather_lanes (Int64.logand (Int64.shift_right_logical (load8 p i) shift) lanes)

(* Bitmap word [w]'s bits as the bytes of [p] state them. *)
let[@inline] gather p w shift =
  let i = first w in
  gather8 p i shift
  lor (gather8 p (i + 8) shift lsl 8)
  lor (gather8 p (i + 16) shift lsl 16)
  lor (gather8 p (i + 24) shift lsl 24)

(* Recompute the bitmap bits of bytes [off, stop) of [p] from the bytes.
   A word is gathered whole and its bits outside the segment masked off:
   they mirror bytes the caller did not store. *)
let rebuild_bits t p off stop =
  let dt = ref 0 and dp = ref 0 in
  for w = off lsr word_bits to (stop - 1) lsr word_bits do
    let m = span (lo w off) (hi w stop) in
    dt := !dt + put_bits p.tracked_w w m (gather p w tracked_shift land m);
    dp := !dp + put_bits p.pending_w w m (gather p w pending_shift land m)
  done;
  count t p ~tracked:!dt ~pending:!dp

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
let[@inline] log t addr old =
  Array.unsafe_set t.log_addr t.log_n addr;
  Array.unsafe_set t.log_old t.log_n old;
  t.log_n <- t.log_n + 1

let check_range what off n =
  if off < 0 || n < 0 || off + n > page_size then
    invalid_arg (Printf.sprintf "Shadow_pages.%s: [%d, %d) is not inside a page" what off (off + n))

let mirrored = bit_tracked lor bit_pending

let update t addr n ~keep ~set =
  let off = offset addr in
  check_range "update" off n;
  if keep land mirrored <> 0 then invalid_arg "Shadow_pages.update: [keep] holds a mirrored bit";
  if n > 0 then begin
    let p = own_page t addr in
    let stop = off + n in
    if keep = 0 then Bytes.unsafe_fill p.bytes off n (Char.unsafe_chr set)
    else begin
      (* Byte by byte up to an 8-byte boundary, then 8 bytes at a time. *)
      let keep8 = Int64.mul (Int64.of_int keep) lanes and set8 = Int64.mul (Int64.of_int set) lanes in
      let i = ref off in
      while !i < stop && (!i land 7 <> 0 || !i + 8 > stop) do
        set_byte p !i (byte p !i land keep lor set);
        incr i
      done;
      while !i + 8 <= stop do
        set64 p.bytes !i (Int64.logor (Int64.logand (get64 p.bytes !i) keep8) set8);
        i := !i + 8
      done;
      for i = !i to stop - 1 do
        set_byte p i (byte p i land keep lor set)
      done
    end;
    fill_bits t p off stop ~tracked:(set land bit_tracked <> 0)
      ~pending:(set land bit_pending <> 0)
  end

let blit_out t addr n dst doff =
  let off = offset addr in
  check_range "blit_out" off n;
  let p = find_page t addr in
  if p == no_page then Bytes.fill dst doff n '\000' else Bytes.blit p.bytes off dst doff n

let restore t addr n src soff =
  let off = offset addr in
  check_range "restore" off n;
  if n > 0 then begin
    let p = own_page t addr in
    Bytes.blit src soff p.bytes off n;
    rebuild_bits t p off (off + n)
  end

(* Bit [k] of [todo] marks byte [first w + k] to restate: its state
   field and pending bit become [bits]' (it stays tracked), logged when
   [log].  Answers how many bytes were stored; the caller has reserved
   the log entries. *)
let restate_word t p w todo ~bits ~log:logging =
  let m = ref todo in
  while !m <> 0 do
    let k = popcount ((!m land - !m) - 1) in
    let i = first w + k in
    let b = byte p i in
    set_byte p i (b land lnot (state_mask lor bit_pending) lor bits);
    if logging then log t (p.base + i) b;
    m := !m land (!m - 1)
  done;
  let pending = put_bits p.pending_w w todo (if bits land bit_pending <> 0 then todo else 0) in
  count t p ~tracked:0 ~pending;
  popcount todo

(* [1 lsl state] for a tracked byte, else 0. *)
let[@inline] code_bit b = ((b lsr tracked_shift) land 1) lsl (b land state_mask)

(* [1] when [b] is tracked with its state in [states], else [0]. *)
let[@inline] restatable states b = (states lsr (b land state_mask)) land (b lsr tracked_shift) land 1

let low7 = 0x7f7f_7f7f_7f7f_7f7fL
let high = 0x8080_8080_8080_8080L

(* Bit [k] of each byte of [x], in bit 0 of its lane. *)
let[@inline] lane_bits x k = Int64.logand (Int64.shift_right_logical x k) lanes

(* Lanes holding 1 made lanes holding 0xff. *)
let[@inline] spread l = Int64.mul l 0xffL

(* Bit 0 of each lane: is that byte of [z] nonzero?  A byte is nonzero
   when its low 7 bits plus [0x7f] carry into its high bit, or that bit
   is set already. *)
let[@inline] nonzero_lanes z =
  Int64.shift_right_logical (Int64.logand (Int64.logor (Int64.add (Int64.logand z low7) low7) z) high) 7

(* [classify]'s answer for the 8 bytes from [i], with no branch: each
   byte becomes [1 lsl state] (0 when untracked) by shifting a 1 by each
   bit of its state code in turn; the or of those bytes is the mask, and
   the bytes meeting [states] and [having] are the restate bits, gathered
   into bits 0-7. *)
let classify8 p i ~states ~having =
  let x = load8 p i in
  let by1 = spread (lane_bits x 1) and by2 = spread (lane_bits x 2) in
  let v = Int64.add lanes (lane_bits x 0) in
  let v = Int64.logor (Int64.logand v (Int64.lognot by1)) (Int64.logand (Int64.shift_left v 2) by1) in
  let v = Int64.logor (Int64.logand v (Int64.lognot by2)) (Int64.logand (Int64.shift_left v 4) by2) in
  let v = Int64.logand v (spread (lane_bits x tracked_shift)) in
  let f = Int64.logor v (Int64.shift_right_logical v 32) in
  let f = Int64.logor f (Int64.shift_right_logical f 16) in
  let f = Int64.logor f (Int64.shift_right_logical f 8) in
  let h = Int64.mul (Int64.of_int having) lanes in
  let lacking = nonzero_lanes (Int64.logxor (Int64.logand x h) h) in
  let sel = nonzero_lanes (Int64.logand v (Int64.mul (Int64.of_int states) lanes)) in
  gather_lanes (Int64.logand sel (Int64.logxor lacking lanes))
  lor ((Int64.to_int f land 0xff) lsl word_size)

(* Classify bytes [lo, hi) of one word of [p]: answers the bits of those
   to restate (tracked, state in [states], every bit of [having]), or-ed
   with the mask of the tracked bytes' state codes shifted above them.
   Aligned runs of 8 bytes go through [classify8]. *)
let classify p lo hi ~states ~having =
  let r = ref 0 and i = ref lo in
  while !i < hi do
    let k = !i land (word_size - 1) in
    if !i land 7 = 0 && !i + 8 <= hi then begin
      let c = classify8 p !i ~states ~having in
      r := !r lor (c land 0xff) lsl k lor (c land lnot 0xff);
      i := !i + 8
    end
    else begin
      let b = byte p !i in
      let todo = if b land having = having then restatable states b else 0 in
      r := !r lor (todo lsl k) lor (code_bit b lsl word_size);
      incr i
    end
  done;
  !r

let word_bits_mask = (1 lsl word_size) - 1

(* One pass: each word's bytes are classified, then the ones marked are
   restated. *)
let scan_restate t addr n ~states ~bits =
  let off = offset addr in
  check_range "scan_restate" off n;
  t.log_n <- 0;
  let p = find_page t addr in
  if p == no_page || n = 0 then 0
  else begin
    let stop = off + n and mask = ref 0 in
    for w = off lsr word_bits to (stop - 1) lsr word_bits do
      let r = classify p (lo w off) (hi w stop) ~states ~having:0 in
      mask := !mask lor (r lsr word_size);
      let todo = r land word_bits_mask in
      if todo <> 0 then begin
        reserve t word_size;
        ignore (restate_word t p w todo ~bits ~log:true)
      end
    done;
    !mask
  end

let restate t addr n ~states ~having ~bits =
  let off = offset addr in
  check_range "restate" off n;
  let p = find_page t addr in
  if p == no_page || n = 0 then 0
  else begin
    let stop = off + n and k = ref 0 in
    for w = off lsr word_bits to (stop - 1) lsr word_bits do
      let todo = classify p (lo w off) (hi w stop) ~states ~having land word_bits_mask in
      if todo <> 0 then k := !k + restate_word t p w todo ~bits ~log:false
    done;
    !k
  end

(* Each bitmap word is read before any of its bytes is restated, so
   clearing bits while walking is safe. *)
let restate_all t ~pending ~states ~bits ~log =
  t.log_n <- 0;
  let k = ref 0 in
  for i = 0 to t.n_pages - 1 do
    let p = t.all.(i) in
    let words = if pending then p.pending_w else p.tracked_w in
    let n = if pending then p.pending_n else p.tracked_n in
    if n > 0 then
      for w = 0 to words_per_page - 1 do
        let m = ref words.(w) and todo = ref 0 in
        while !m <> 0 do
          let j = popcount ((!m land - !m) - 1) in
          todo := !todo lor (restatable states (byte p (first w + j)) lsl j);
          m := !m land (!m - 1)
        done;
        if !todo <> 0 then begin
          if log then reserve t word_size;
          k := !k + restate_word t p w !todo ~bits ~log
        end
      done
  done;
  !k

let changes t = t.log_n
let change_addrs t = t.log_addr
let change_olds t = t.log_old

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
                f (p.base + off) (byte p off)
              end
            done
        done)
    pages
