module Obs = Xfd_obs.Obs

(* Device-level telemetry: every simulated hardware operation counts here,
   whichever layer drives it (frontend, failure-point captures, offline boot). *)
let c_loads = Obs.Counter.make "pm.loads"
let c_load_bytes = Obs.Counter.make "pm.load_bytes"
let c_stores = Obs.Counter.make "pm.stores"
let c_store_bytes = Obs.Counter.make "pm.store_bytes"
let c_nt_stores = Obs.Counter.make "pm.nt_stores"
let c_flushes = Obs.Counter.make "pm.flushes"
let c_fences = Obs.Counter.make "pm.fences"
let c_snapshots = Obs.Counter.make "pm.snapshots"

(* The bytes failure-point snapshots copy eagerly.  A [capture] copies
   none, so this stays 0; it is registered because the metrics summary,
   the dashboard and the CI snapshot budget read it. *)
let (_ : Obs.Counter.t) = Obs.Counter.make "pm.snapshot_bytes"
let c_snapshot_shared_bytes = Obs.Counter.make "pm.snapshot_shared_bytes"
let h_snapshot_bytes = Obs.Histogram.make "pm.snapshot_bytes_per_snapshot"
let c_crashes = Obs.Counter.make "pm.crashes"
let c_boots = Obs.Counter.make "pm.boots"

type crash_mode = Full | Strict | Randomized of Xfd_util.Rng.t

type stats = { stores : int; loads : int; flushes : int; fences : int; nt_stores : int }

(* The cache model keeps two bits per PM byte, in per-page bitmaps: dirty
   (modified, not captured by a flush) and pending (captured, awaiting a
   fence).  Bitmap words are 32 bits wide, so the line at offset [64 l] of
   a page is words [2 l] and [2 l + 1]. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let line_size = Addr.line_size
let line_bits = 6
let lines_per_page = page_size / line_size
let word_bits = 5
let word_size = 1 lsl word_bits
let full_word = (1 lsl word_size) - 1
let words_per_page = page_size lsr word_bits

type page = {
  base : Addr.t;
  dirty_w : int array;
  pending_w : int array;
  mutable dirty_n : int;
  mutable pending_n : int;
}

(* What a lookup of a page nobody touched returns: its base is no page's. *)
let no_page = { base = -1; dirty_w = [||]; pending_w = [||]; dirty_n = 0; pending_n = 0 }

(* The cache model of a tracking device: the persisted layer, the page
   bitmaps, and the values the pending bytes were captured with.  A line
   holding pending bytes owns a 64-byte slot of [captured]; the slots are
   listed in [line_addr], so a fence drains O(pending lines) and then
   forgets them all.  An image-only device ([boot_image_only]) has no
   cache model and does architectural work only. *)
type cache = {
  persisted : Image.t;
  index : Xfd_util.Int_table.t; (* page index -> slot in [pages]; -1 for a miss *)
  mutable pages : page array;
  mutable n_pages : int;
  mutable last : page; (* one-slot lookup cache for locality *)
  mutable dirty : int;
  mutable pending : int;
  lines : Xfd_util.Int_table.t; (* line index -> slot of a line holding pending bytes *)
  mutable line_addr : Addr.t array;
  mutable captured : bytes;
  mutable n_lines : int;
}

type t = {
  img : Image.t;
  cache : cache option;
  mutable n_stores : int;
  mutable n_loads : int;
  mutable n_flushes : int;
  mutable n_fences : int;
  mutable n_nt_stores : int;
}

let new_cache persisted =
  {
    persisted;
    index = Xfd_util.Int_table.create 16;
    pages = [||];
    n_pages = 0;
    last = no_page;
    dirty = 0;
    pending = 0;
    lines = Xfd_util.Int_table.create 16;
    line_addr = Array.make 16 0;
    captured = Bytes.create (16 * line_size);
    n_lines = 0;
  }

let device img cache =
  { img; cache; n_stores = 0; n_loads = 0; n_flushes = 0; n_fences = 0; n_nt_stores = 0 }

let create () = device (Image.create ()) (Some (new_cache (Image.create ())))
let image t = t.img

let stats t =
  {
    stores = t.n_stores;
    loads = t.n_loads;
    flushes = t.n_flushes;
    fences = t.n_fences;
    nt_stores = t.n_nt_stores;
  }

(* ------------------------------------------------------------------ *)
(* Bitmap arithmetic. *)

(* Int-typed min/max: [Stdlib.min]/[max] are polymorphic and compile to a
   call on these paths. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* Bits [lo, hi) of a word, 0 <= lo, hi <= 32; empty when hi <= lo. *)
let bits lo hi = if hi <= lo then 0 else ((1 lsl (hi - lo)) - 1) lsl lo

(* The bits of bitmap word [w] that offsets [off, stop) cover, counting
   words and offsets from the same page or line start. *)
let word_mask off stop w =
  let w0 = w lsl word_bits in
  bits (imax off w0 - w0) (imin stop (w0 + word_size) - w0)

let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xff

(* Bit [i] of the line mask whose low word is [m0] and high word [m1]. *)
let line_bit m0 m1 i =
  if i < word_size then (m0 lsr i) land 1 <> 0 else (m1 lsr (i - word_size)) land 1 <> 0

(* Write each maximal run of set bits [i, j) of the line mask from
   [src] at [src_off + i] to [dst] at [line + i]. *)
let write_runs dst line src src_off m0 m1 =
  if m0 = full_word && m1 = full_word then Image.write_from dst line src src_off line_size
  else begin
    let i = ref 0 in
    while !i < line_size do
      if line_bit m0 m1 !i then begin
        let j = ref (!i + 1) in
        while !j < line_size && line_bit m0 m1 !j do
          incr j
        done;
        Image.write_from dst (line + !i) src (src_off + !i) (!j - !i);
        i := !j
      end
      else incr i
    done
  end

let page_offset addr = addr land (page_size - 1)

(* First bitmap word of the line holding [addr]. *)
let line_word addr = page_offset (Addr.line_of addr) lsr word_bits

(* The page holding [addr], or [no_page]. *)
let find_page c addr =
  if c.last.base = addr land lnot (page_size - 1) then c.last
  else
    let slot = Xfd_util.Int_table.find c.index (addr lsr page_bits) in
    if slot < 0 then no_page
    else begin
      let p = Array.unsafe_get c.pages slot in
      c.last <- p;
      p
    end

let own_page c addr =
  let p = find_page c addr in
  if p != no_page then p
  else begin
    let p =
      {
        base = addr land lnot (page_size - 1);
        dirty_w = Array.make words_per_page 0;
        pending_w = Array.make words_per_page 0;
        dirty_n = 0;
        pending_n = 0;
      }
    in
    Xfd_util.Int_table.replace c.index (addr lsr page_bits) c.n_pages;
    if c.n_pages = Array.length c.pages then begin
      let pages = Array.make (imax 8 (2 * c.n_pages)) p in
      Array.blit c.pages 0 pages 0 c.n_pages;
      c.pages <- pages
    end;
    c.pages.(c.n_pages) <- p;
    c.n_pages <- c.n_pages + 1;
    c.last <- p;
    p
  end

(* The captured-value slot of [line], made on its first pending byte. *)
let line_slot c line =
  let k = Xfd_util.Int_table.find c.lines (line lsr line_bits) in
  if k >= 0 then k
  else begin
    let k = c.n_lines in
    if k = Array.length c.line_addr then begin
      let addrs = Array.make (2 * k) 0 in
      Array.blit c.line_addr 0 addrs 0 k;
      c.line_addr <- addrs;
      let captured = Bytes.create (2 * k * line_size) in
      Bytes.blit c.captured 0 captured 0 (k * line_size);
      c.captured <- captured
    end;
    c.line_addr.(k) <- line;
    Xfd_util.Int_table.replace c.lines (line lsr line_bits) k;
    c.n_lines <- k + 1;
    k
  end

(* ------------------------------------------------------------------ *)
(* Cache transitions. *)

(* Dirty bytes [addr, addr + n) of one page. *)
let mark_dirty c addr n =
  let p = own_page c addr in
  let off = page_offset addr in
  let stop = off + n in
  let added = ref 0 in
  for w = off lsr word_bits to (stop - 1) lsr word_bits do
    let m = word_mask off stop w in
    let old = Array.unsafe_get p.dirty_w w in
    added := !added + popcount (m land lnot old);
    Array.unsafe_set p.dirty_w w (old lor m)
  done;
  p.dirty_n <- p.dirty_n + !added;
  c.dirty <- c.dirty + !added

let rec dirty_range c addr n =
  if n > 0 then begin
    let len = imin n (page_size - page_offset addr) in
    mark_dirty c addr len;
    dirty_range c (addr + len) (n - len)
  end

(* Make the bytes of line mask (m0, m1), whose first word is [w] of page
   [p], pending and not dirty; the caller has put their values in the
   line's slot of [captured]. *)
let make_pending c p w m0 m1 =
  let d0 = p.dirty_w.(w) and d1 = p.dirty_w.(w + 1) in
  let p0 = p.pending_w.(w) and p1 = p.pending_w.(w + 1) in
  let cleaned = popcount (d0 land m0) + popcount (d1 land m1) in
  p.dirty_w.(w) <- d0 land lnot m0;
  p.dirty_w.(w + 1) <- d1 land lnot m1;
  p.dirty_n <- p.dirty_n - cleaned;
  c.dirty <- c.dirty - cleaned;
  p.pending_w.(w) <- p0 lor m0;
  p.pending_w.(w + 1) <- p1 lor m1;
  let added = popcount (m0 land lnot p0) + popcount (m1 land lnot p1) in
  p.pending_n <- p.pending_n + added;
  c.pending <- c.pending + added

(* An NT store of [b] at [addr]: line segment by line segment, the
   stored bytes become pending with the stored values. *)
let nt_range c addr b =
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    let a = addr + !pos in
    let lo = Addr.offset_in_line a in
    let len = imin (n - !pos) (line_size - lo) in
    let hi = lo + len in
    let line = a - lo in
    let p = own_page c a in
    let k = line_slot c line in
    Bytes.blit b !pos c.captured ((k * line_size) + lo) len;
    make_pending c p (line_word a) (word_mask lo hi 0) (word_mask lo hi 1);
    pos := !pos + len
  done

(* A flush of [line] on page [p]: its dirty bytes become pending with
   their current values.  A byte pending but not dirty was not stored
   since its capture, so the image holds its captured value too: one read
   of the whole line refreshes the slot. *)
let capture c img p line =
  let w = line_word line in
  let d0 = p.dirty_w.(w) and d1 = p.dirty_w.(w + 1) in
  if d0 lor d1 <> 0 then begin
    Image.read_into img line c.captured (line_slot c line * line_size) line_size;
    make_pending c p w d0 d1
  end

(* The fence: every pending line's captured bytes go to the persisted
   image, and the line slots are forgotten. *)
let drain c =
  for k = 0 to c.n_lines - 1 do
    let line = c.line_addr.(k) in
    let p = find_page c line in
    let w = line_word line in
    let p0 = p.pending_w.(w) and p1 = p.pending_w.(w + 1) in
    write_runs c.persisted line c.captured (k * line_size) p0 p1;
    p.pending_w.(w) <- 0;
    p.pending_w.(w + 1) <- 0;
    let drained = popcount p0 + popcount p1 in
    p.pending_n <- p.pending_n - drained;
    c.pending <- c.pending - drained
  done;
  Xfd_util.Int_table.clear c.lines;
  c.n_lines <- 0

(* ------------------------------------------------------------------ *)
(* Device operations. *)

let load t addr size =
  t.n_loads <- t.n_loads + 1;
  Obs.Counter.incr c_loads;
  Obs.Counter.add c_load_bytes size;
  Image.read t.img addr size

let store t addr b =
  t.n_stores <- t.n_stores + 1;
  Obs.Counter.incr c_stores;
  Obs.Counter.add c_store_bytes (Bytes.length b);
  Image.write t.img addr b;
  match t.cache with None -> () | Some c -> dirty_range c addr (Bytes.length b)

let load_i64 t addr = Xfd_util.Bytesx.get_i64 (load t addr 8) 0
let store_i64 t addr v = store t addr (Xfd_util.Bytesx.i64_to_bytes v)

let store_nt t addr b =
  t.n_nt_stores <- t.n_nt_stores + 1;
  Obs.Counter.incr c_nt_stores;
  Obs.Counter.add c_store_bytes (Bytes.length b);
  Image.write t.img addr b;
  match t.cache with None -> () | Some c -> nt_range c addr b

let clwb t addr =
  t.n_flushes <- t.n_flushes + 1;
  Obs.Counter.incr c_flushes;
  match t.cache with
  | None -> ()
  | Some c ->
    let line = Addr.line_of addr in
    let p = find_page c line in
    if p != no_page then capture c t.img p line

let clflush t addr = clwb t addr

let sfence t =
  t.n_fences <- t.n_fences + 1;
  Obs.Counter.incr c_fences;
  match t.cache with None -> () | Some c -> drain c

(* The global persistent flush: every dirty line is flushed, walking the
   bitmaps a line at a time over the pages holding dirty bytes, and then
   everything pending drains.  A byte stored again after its flush thus
   persists the later store. *)
let gpf t =
  t.n_fences <- t.n_fences + 1;
  Obs.Counter.incr c_fences;
  match t.cache with
  | None -> ()
  | Some c ->
    for k = 0 to c.n_pages - 1 do
      let p = c.pages.(k) in
      if p.dirty_n > 0 then
        for l = 0 to lines_per_page - 1 do
          capture c t.img p (p.base + (l * line_size))
        done
    done;
    drain c

let dirty_bytes t = match t.cache with None -> 0 | Some c -> c.dirty
let pending_bytes t = match t.cache with None -> 0 | Some c -> c.pending

let tracking t fn =
  match t.cache with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Pm_device.%s: the device is image-only" fn)

(* Byte [a] is dirty or pending. *)
let in_flight c a =
  let p = find_page c a in
  let off = page_offset a in
  p != no_page
  && (p.dirty_w.(off lsr word_bits) lor p.pending_w.(off lsr word_bits))
     land (1 lsl (off land (word_size - 1)))
     <> 0

let is_persisted_range t addr size =
  let c = tracking t "is_persisted_range" in
  let clean = ref true in
  for a = addr to addr + size - 1 do
    if in_flight c a then clean := false
  done;
  !clean && Image.equal_range c.persisted t.img addr size

let crash t mode =
  Obs.Counter.incr c_crashes;
  match mode with
  | Full -> Image.snapshot t.img
  | Strict -> Image.snapshot (tracking t "crash Strict").persisted
  | Randomized rng ->
    let c = tracking t "crash Randomized" in
    (* Start from the guaranteed bytes, then let chance evict or order any
       in-flight line.  Decisions are per cache line, matching hardware:
       eviction writes back whole lines.  Lines are visited in address
       order, one draw each. *)
    let out = Image.snapshot c.persisted in
    let pages = Array.sub c.pages 0 c.n_pages in
    Array.sort (fun a b -> Int.compare a.base b.base) pages;
    Array.iter
      (fun p ->
        for l = 0 to lines_per_page - 1 do
          let w = 2 * l in
          let d0 = p.dirty_w.(w) and d1 = p.dirty_w.(w + 1) in
          let p0 = p.pending_w.(w) and p1 = p.pending_w.(w + 1) in
          if d0 lor d1 lor p0 lor p1 <> 0 && Xfd_util.Rng.bool rng then begin
            let line = p.base + (l * line_size) in
            write_runs out line (Image.read t.img line line_size) 0 d0 d1;
            if p0 lor p1 <> 0 then
              write_runs out line c.captured
                (line_size * Xfd_util.Int_table.find c.lines (line lsr line_bits))
                p0 p1
          end
        done)
      pages;
    out

(* A failure-point capture is the crash image itself: one CoW chunk-table
   copy and no eager byte copy, so [pm.snapshot_bytes] grows by 0 and
   [pm.snapshot_shared_bytes] by the captured image's footprint. *)
let capture t mode =
  Obs.Counter.incr c_snapshots;
  Obs.Histogram.observe h_snapshot_bytes 0;
  let img = crash t mode in
  Obs.Counter.add c_snapshot_shared_bytes (Image.footprint img);
  img

(* Both layers start as CoW views of the crash image: the booted device's
   architectural content counts as persisted, and the first write to any
   chunk of either layer takes its private copy. *)
let boot img =
  Obs.Counter.incr c_boots;
  device (Image.snapshot img) (Some (new_cache (Image.snapshot img)))

let boot_image_only img =
  Obs.Counter.incr c_boots;
  device (Image.snapshot img) None

let release t =
  Image.release t.img;
  Option.iter
    (fun c ->
      Image.release c.persisted;
      Xfd_util.Int_table.clear c.index;
      c.pages <- [||];
      c.n_pages <- 0;
      c.last <- no_page;
      c.dirty <- 0;
      c.pending <- 0;
      Xfd_util.Int_table.clear c.lines;
      c.n_lines <- 0)
    t.cache
