module Obs = Xfd_obs.Obs

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits (* 4 KiB, one page *)

(* Copy-on-write telemetry.  [pm.cow_faults]/[pm.cow_bytes] count lazy chunk
   copies triggered by writes to shared chunks; the gauges track the unique
   chunk payload bytes alive across every image in the process (shared
   chunks count once — this is the real memory footprint of all snapshots,
   crash images and live devices together). *)
let c_cow_faults = Obs.Counter.make "pm.cow_faults"
let c_cow_bytes = Obs.Counter.make "pm.cow_bytes"
let g_live = Obs.Gauge.make "pm.chunk_bytes_live"
let g_peak = Obs.Gauge.make "pm.chunk_bytes_peak"

let live_bytes_a = Atomic.make 0
let peak_bytes_a = Atomic.make 0

let rec store_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

let account_alloc () =
  let live = Atomic.fetch_and_add live_bytes_a chunk_size + chunk_size in
  store_max peak_bytes_a live;
  Obs.Gauge.set g_live (float_of_int live);
  Obs.Gauge.set g_peak (float_of_int (Atomic.get peak_bytes_a))

let account_free () =
  let live = Atomic.fetch_and_add live_bytes_a (-chunk_size) - chunk_size in
  Obs.Gauge.set g_live (float_of_int live)

let live_bytes () = Atomic.get live_bytes_a
let peak_bytes () = Atomic.get peak_bytes_a

let reset_peak () =
  Atomic.set peak_bytes_a (Atomic.get live_bytes_a);
  Obs.Gauge.set g_peak (float_of_int (Atomic.get peak_bytes_a))

(* A chunk is a refcounted page.  [refs] counts the images whose table
   references it; a chunk with [refs > 1] is immutable (every writer must
   first take a private copy), which is what makes sharing a chunk between
   a device and its crash images safe: a shared payload is only ever read,
   and all ownership transitions go through the atomic refcount. *)
type chunk = { data : bytes; refs : int Atomic.t }

type t = { chunks : (int, chunk) Hashtbl.t; mutable footprint : int }

let create () = { chunks = Hashtbl.create 64; footprint = 0 }

let chunk_index addr = addr lsr chunk_bits
let chunk_offset addr = addr land (chunk_size - 1)

(* Chunks whose last reference went are recycled: a 4 KiB payload is
   allocated straight in the major heap, and a detect frees hundreds.  The
   bound (1 MiB of payload) covers the pre-failure device of a detect-sized
   program plus its post runs' copies, so back-to-back detects take their
   chunks from here; a busier process drops the surplus for the GC. *)
let free_bound = 256
let free : chunk Xfd_util.Free_list.t = Xfd_util.Free_list.create ~bound:free_bound
let free_chunks () = Xfd_util.Free_list.length free

(* A chunk with one reference, whose payload the caller overwrites or
   fills before anyone reads it. *)
let fresh_chunk () =
  let c =
    Xfd_util.Free_list.take free ~make:(fun () ->
        { data = Bytes.create chunk_size; refs = Atomic.make 1 })
  in
  Atomic.set c.refs 1;
  account_alloc ();
  c

(* A chunk no image references any more: no reader can reach its
   payload, so the next [fresh_chunk] may take it. *)
let release_chunk c =
  if Atomic.fetch_and_add c.refs (-1) = 1 then begin
    account_free ();
    Xfd_util.Free_list.give free c
  end

(* The chunk at [idx], or [no_chunk].  [Hashtbl.find] allocates nothing
   on a hit, where [find_opt] would box its answer. *)
let no_chunk = { data = Bytes.empty; refs = Atomic.make 0 }

let find_chunk t idx =
  match Hashtbl.find t.chunks idx with c -> c | exception Not_found -> no_chunk

(* The chunk at [idx], exclusively owned so the caller may mutate it.  On a
   shared chunk this is the CoW fault: copy the payload, then drop our
   reference to the shared original.  The copy happens before the decrement,
   so a peer that observes [refs = 1] (and then writes in place) is ordered
   after our read of the shared bytes. *)
let writable_chunk t idx =
  let c = find_chunk t idx in
  if c == no_chunk then begin
    let c = fresh_chunk () in
    Bytes.fill c.data 0 chunk_size '\000';
    Hashtbl.replace t.chunks idx c;
    t.footprint <- t.footprint + chunk_size;
    c.data
  end
  else if Atomic.get c.refs = 1 then c.data
  else begin
    let mine = fresh_chunk () in
    Bytes.blit c.data 0 mine.data 0 chunk_size;
    Hashtbl.replace t.chunks idx mine;
    Obs.Counter.incr c_cow_faults;
    Obs.Counter.add c_cow_bytes chunk_size;
    release_chunk c;
    mine.data
  end

let read_byte t addr =
  let c = find_chunk t (chunk_index addr) in
  if c == no_chunk then '\000' else Bytes.get c.data (chunk_offset addr)

let write_byte t addr v = Bytes.set (writable_chunk t (chunk_index addr)) (chunk_offset addr) v

(* Int-typed: [Stdlib.min] is polymorphic and compiles to a call. *)
let imin (a : int) b = if a < b then a else b

let read_into t addr dst dst_off size =
  let pos = ref 0 in
  while !pos < size do
    let a = addr + !pos in
    let off = chunk_offset a in
    let len = imin (size - !pos) (chunk_size - off) in
    let c = find_chunk t (chunk_index a) in
    if c == no_chunk then Bytes.fill dst (dst_off + !pos) len '\000'
    else Bytes.blit c.data off dst (dst_off + !pos) len;
    pos := !pos + len
  done

let read t addr size =
  let out = Bytes.create size in
  read_into t addr out 0 size;
  out

let write_from t addr src src_off size =
  let pos = ref 0 in
  while !pos < size do
    let a = addr + !pos in
    let off = chunk_offset a in
    let len = imin (size - !pos) (chunk_size - off) in
    Bytes.blit src (src_off + !pos) (writable_chunk t (chunk_index a)) off len;
    pos := !pos + len
  done

let write t addr b = write_from t addr b 0 (Bytes.length b)

let read_i64 t addr = Xfd_util.Bytesx.get_i64 (read t addr 8) 0
let write_i64 t addr v = write t addr (Xfd_util.Bytesx.i64_to_bytes v)

let snapshot t =
  let chunks = Hashtbl.create (max 16 (Hashtbl.length t.chunks)) in
  Hashtbl.iter
    (fun idx c ->
      Atomic.incr c.refs;
      Hashtbl.replace chunks idx c)
    t.chunks;
  { chunks; footprint = t.footprint }

let release t =
  Hashtbl.iter (fun _ c -> release_chunk c) t.chunks;
  Hashtbl.reset t.chunks;
  t.footprint <- 0

let shared_bytes t =
  Hashtbl.fold
    (fun _ c acc -> if Atomic.get c.refs > 1 then acc + chunk_size else acc)
    t.chunks 0

let footprint t = t.footprint
let equal_range a b addr size = Bytes.equal (read a addr size) (read b addr size)

