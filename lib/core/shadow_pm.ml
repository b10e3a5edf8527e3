module Addr = Xfd_mem.Addr
module Pages = Xfd_mem.Shadow_pages
module Obs = Xfd_obs.Obs
module History = Xfd_forensics.History
module Loc = Xfd_util.Loc

(* Per-byte FSM transition tallies (paper Figure 8): one increment per byte
   entering the named state during replay. *)
let c_to_modified = Obs.Counter.make "shadow.fsm.to_modified"
let c_to_writeback = Obs.Counter.make "shadow.fsm.to_writeback_pending"
let c_to_persisted = Obs.Counter.make "shadow.fsm.to_persisted"
let c_to_unmodified = Obs.Counter.make "shadow.fsm.to_unmodified"

(* Divergence journal unwinds: one per failure point the engine retires
   (plus the implicit unwind when the base layer resumes mutating). *)
let c_rewinds = Obs.Counter.make "shadow.divergence_rewinds"

type cell = {
  pstate : Pstate.t;
  tlast : int;
  writer : Loc.t;
  uninit : bool;
  post_written : bool;
  hist : History.t option;
}

(* Packed-byte flags on top of the {!Pstore} layout: [bit_flag_a] =
   allocated-uninitialised, [bit_flag_b] = post-written, [bit_flag_c] =
   captured by the active divergence journal. *)
let bit_uninit = Pages.bit_flag_a
let bit_post = Pages.bit_flag_b
let bit_journaled = Pages.bit_flag_c

(* [bit_journaled] is [1 lsl journaled_shift]. *)
let journaled_shift =
  let rec go k = if 1 lsl k = bit_journaled then k else go (k + 1) in
  go 0

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The delta journal of the store's one post-failure divergence, by
   segment: before the divergence stores a run of bytes inside one page,
   their packed bytes and cold words are copied out (with blits) and the
   run is pushed as a segment.  A segment is pushed only when it holds a
   byte not yet journaled ([bit_journaled] marks the bytes the
   divergence stored); one that repeats bytes is harmless, since the
   rewind restores the last segment first, so a byte's earliest copy —
   its pre-divergence value — wins.  [distinct] counts the journaled
   bytes.  The pending segments are the stores and flushed lines by which
   the divergence made bytes writeback-pending since its last fence: the
   only places its next fence looks (see [fence]).  [base_locs] is the
   size of the location table at the fork: the divergence's writers are
   interned past it.

   The journal is scratch the store owns: a rewind empties it, and the
   next divergence reuses its buffers, so a fork allocates nothing once
   they have grown to the workload's size. *)
type journal = {
  mutable n : int;
  mutable s_addr : int array;
  mutable s_len : int array;
  mutable s_at : int array;  (* where the segment's copies start in [olds] *)
  mutable olds : Bytes.t;  (* saved packed bytes, segment after segment *)
  mutable colds : Bytes.t;  (* their cold words, as a column lays them out *)
  mutable used : int;  (* bytes of [olds] in use *)
  mutable distinct : int;
  mutable p_addr : int array;
  mutable p_len : int array;
  mutable p_n : int;
  mutable base_locs : int;
}

(* The provenance histories of a forensic store, one row per byte of each
   page a base mutation touched, with the last page's rows at hand. *)
type hists = {
  rows : (int, History.t option array) Hashtbl.t;
  mutable last_page : int;
  mutable last_rows : History.t option array;
}

type store = {
  ps : Pstore.t;  (* one cold word per byte: [tlast] and the writer *)
  pages : Pages.t;  (* [Pstore.pages ps], kept at hand for the hot paths *)
  hists : hists option;  (* forensic stores only *)
  j : journal;
  mutable gens : int;  (* overlays created so far *)
  mutable live : int;  (* generation of the live divergence; 0 = none *)
}

(* A view of the store: the base ([gen = 0]) or the overlay created as
   generation [gen], which is usable while [gen] is the live divergence. *)
type t = { store : store; gen : int }

let journal_capacity = 64

let create ?(forensics = false) ?(domain = Xfd_trace.Domain_model.Adr) () =
  let ps = Pstore.create ~domain ~words:1 in
  let j =
    {
      n = 0;
      s_addr = Array.make journal_capacity 0;
      s_len = Array.make journal_capacity 0;
      s_at = Array.make journal_capacity 0;
      olds = Bytes.create (4 * journal_capacity);
      colds = Bytes.create (8 * 4 * journal_capacity);
      used = 0;
      distinct = 0;
      p_addr = Array.make journal_capacity 0;
      p_len = Array.make journal_capacity 0;
      p_n = 0;
      base_locs = 1;
    }
  in
  {
    store =
      {
        ps;
        pages = Pstore.pages ps;
        hists =
          (if forensics then Some { rows = Hashtbl.create 16; last_page = -1; last_rows = [||] }
           else None);
        j;
        gens = 0;
        live = 0;
      };
    gen = 0;
  }

let domain t = Pstore.domain t.store.ps

let clear_journal j =
  j.n <- 0;
  j.used <- 0;
  j.distinct <- 0;
  j.p_n <- 0

let release t =
  let store = t.store in
  Pstore.release store.ps;
  Option.iter
    (fun h ->
      Hashtbl.reset h.rows;
      h.last_page <- -1;
      h.last_rows <- [||])
    store.hists;
  clear_journal store.j;
  store.live <- 0

let live t = t.gen = 0 || t.store.live = t.gen

(* ------------------------------------------------------------------ *)
(* Divergence journal *)

let rewind_div store =
  Obs.Counter.incr c_rewinds;
  let j = store.j in
  (* The earliest copy of a byte predates the divergence, so it never
     carries [bit_journaled]; restoring it also heals the bitmaps and
     counts. *)
  for i = j.n - 1 downto 0 do
    let addr = j.s_addr.(i) and n = j.s_len.(i) and at = j.s_at.(i) in
    Pages.restore store.pages addr n j.olds at;
    Pstore.restore_words store.ps j.colds at addr n
  done;
  clear_journal j;
  (* The divergence's writers go; so does a cached id among them. *)
  Pstore.truncate_locs store.ps j.base_locs;
  store.live <- 0

(* Any base-layer mutation invalidates the outstanding divergence: the
   canonical prefix is moving on, so the journal is unwound first.  Base
   *reads* do not unwind — they resolve through the journal instead. *)
let ensure_base store = if store.live <> 0 then rewind_div store

(* [a] with room for [need] entries, doubling. *)
let capacity have need =
  let cap = ref (Int.max 1 have) in
  while !cap < need do
    cap := 2 * !cap
  done;
  !cap

let grow a need =
  if need <= Array.length a then a
  else begin
    let a' = Array.make (capacity (Array.length a) need) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow_bytes b need =
  if need <= Bytes.length b then b
  else Bytes.extend b 0 (capacity (Bytes.length b) need - Bytes.length b)

(* Room for one more segment of [n] bytes. *)
let reserve j n =
  if j.n = Array.length j.s_addr then begin
    j.s_addr <- grow j.s_addr (j.n + 1);
    j.s_len <- grow j.s_len (j.n + 1);
    j.s_at <- grow j.s_at (j.n + 1)
  end;
  j.olds <- grow_bytes j.olds (j.used + n);
  j.colds <- grow_bytes j.colds (8 * (j.used + n))

(* Push the [n] bytes from [addr], whose packed copies are already at
   [j.used] in [olds], as a segment, copying out their cold words. *)
let push store addr n =
  let j = store.j in
  let at = j.used in
  Pstore.save_words store.ps addr n j.colds at;
  let k = j.n in
  j.s_addr.(k) <- addr;
  j.s_len.(k) <- n;
  j.s_at.(k) <- at;
  j.n <- k + 1;
  j.used <- at + n

let push_pending j addr n =
  if j.p_n = Array.length j.p_addr then begin
    j.p_addr <- grow j.p_addr (j.p_n + 1);
    j.p_len <- grow j.p_len (j.p_n + 1)
  end;
  j.p_addr.(j.p_n) <- addr;
  j.p_len.(j.p_n) <- n;
  j.p_n <- j.p_n + 1

(* How many of the [n] packed bytes from [at] of [b] lack [bit_journaled]:
   8 at a time, counting the clear flag bits with one multiply. *)
let unjournaled b at n =
  let flags = Int64.mul (Int64.of_int bit_journaled) 0x0101_0101_0101_0101L in
  let c = ref 0 and i = ref at and stop = at + n in
  while !i + 8 <= stop do
    let clear =
      Int64.shift_right_logical (Int64.logand (Int64.lognot (get64 b !i)) flags) journaled_shift
    in
    c := !c + Int64.to_int (Int64.shift_right_logical (Int64.mul clear 0x0101_0101_0101_0101L) 56);
    i := !i + 8
  done;
  for k = !i to stop - 1 do
    if Char.code (Bytes.unsafe_get b k) land bit_journaled = 0 then incr c
  done;
  !c

(* Journal the [n] bytes from [addr], inside one page, before a
   divergence stores over all of them. *)
let save store addr n =
  let j = store.j in
  reserve j n;
  Pages.blit_out store.pages addr n j.olds j.used;
  let fresh = unjournaled j.olds j.used n in
  if fresh > 0 then begin
    push store addr n;
    j.distinct <- j.distinct + fresh
  end

(* Journal the [k] bytes the last restate stored (the pages' change log,
   in increasing address order): each run of consecutive bytes not yet
   journaled is a segment. *)
let save_changes store k =
  let j = store.j in
  let addrs = Pages.change_addrs store.pages and olds = Pages.change_olds store.pages in
  let i = ref 0 in
  while !i < k do
    if olds.(!i) land bit_journaled <> 0 then incr i
    else begin
      let s = !i in
      incr i;
      while !i < k && olds.(!i) land bit_journaled = 0 && addrs.(!i) = addrs.(!i - 1) + 1 do
        incr i
      done;
      let n = !i - s in
      reserve j n;
      for x = 0 to n - 1 do
        Bytes.unsafe_set j.olds (j.used + x) (Char.unsafe_chr olds.(s + x))
      done;
      push store addrs.(s) n;
      j.distinct <- j.distinct + n
    end
  done

let overlay t =
  let store = t.store in
  ensure_base store;
  store.gens <- store.gens + 1;
  store.live <- store.gens;
  store.j.base_locs <- Pstore.locs store.ps;
  { store; gen = store.gens }

let rewind t = if t.gen <> 0 && t.store.live = t.gen then rewind_div t.store

let stale what = invalid_arg ("Shadow_pm: overlay " ^ what ^ " after its divergence was rewound")

(* Does a mutation through this handle go to the journal?  A base handle
   first unwinds any live divergence; an overlay handle must still own
   the store's divergence. *)
let journaling t =
  if t.gen = 0 then begin
    ensure_base t.store;
    false
  end
  else if t.store.live = t.gen then true
  else stale "used"

(* ------------------------------------------------------------------ *)
(* Reads *)

(* Where the pre-divergence copy of [addr] is in [olds]: the earliest
   segment that covers it holds it. *)
let saved_pos j addr =
  let i = ref 0 in
  while !i < j.n && (addr < j.s_addr.(!i) || addr >= j.s_addr.(!i) + j.s_len.(!i)) do
    incr i
  done;
  if !i = j.n then -1 else j.s_at.(!i) + (addr - j.s_addr.(!i))

(* Where this handle reads [addr]'s fields: [-1] for the store itself
   (overlays see their divergence, written in place), else the journal
   position of the pre-divergence copy a base read resolves to. *)
let source t addr =
  let store = t.store in
  if t.gen <> 0 then if store.live = t.gen then -1 else stale "read"
  else if store.live <> 0 && Pages.has (Pages.get store.pages addr) bit_journaled then
    saved_pos store.j addr
  else -1

let packed t addr =
  let i = source t addr in
  if i < 0 then Pages.get t.store.pages addr else Char.code (Bytes.get t.store.j.olds i)

(* The byte's cold word through this handle. *)
let cold t addr =
  let i = source t addr in
  if i < 0 then Pstore.word_at t.store.ps ~word:0 addr else Pstore.get t.store.j.colds i

let tlast t addr = Pstore.stamp (cold t addr)
let writer t addr = Pstore.loc t.store.ps (cold t addr)

let pstate = Pstore.state
let uninit packed = Pages.has packed bit_uninit
let post_written packed = Pages.has packed bit_post

let find t addr =
  let p = packed t addr in
  if p = 0 then None
  else
    Some
      {
        pstate = pstate p;
        tlast = tlast t addr;
        writer = writer t addr;
        uninit = uninit p;
        post_written = post_written p;
        hist =
          (match t.store.hists with
          | Some h -> (
            match Hashtbl.find_opt h.rows (addr lsr 12) with
            | Some rows -> rows.(Pages.offset addr)
            | None -> None)
          | None -> None);
      }

(* ------------------------------------------------------------------ *)
(* Writes *)

(* Each mutation stores through one {!Pages.update} per page segment or
   one {!Pstore} transfer.  A divergence journals a segment before it
   stores over it, and a restate's stored bytes from the pages' change
   log; a forensic base layer records the stored bytes into their
   histories. *)

type mark = Write | Nt_write | Flush | Fence | Alloc

(* Record into the provenance history of [addr], created on first use.
   Only base mutations record history; divergences read it by reference,
   exactly as the old overlay cells shared their parent's [hist]. *)
let record_one hists mark ~ev addr =
  let page = addr lsr 12 in
  if page <> hists.last_page then begin
    let rows =
      match Hashtbl.find_opt hists.rows page with
      | Some rows -> rows
      | None ->
        let rows = Array.make Pages.page_size None in
        Hashtbl.replace hists.rows page rows;
        rows
    in
    hists.last_page <- page;
    hists.last_rows <- rows
  end;
  let off = addr land (Pages.page_size - 1) in
  let h =
    match hists.last_rows.(off) with
    | Some h -> h
    | None ->
      let h = History.create () in
      hists.last_rows.(off) <- Some h;
      h
  in
  match mark with
  | Write -> History.record_write h ~ev ~nt:false
  | Nt_write -> History.record_write h ~ev ~nt:true
  | Flush -> History.record_flush h ~ev
  | Fence -> History.record_fence h ~ev
  | Alloc -> History.record_alloc h ~ev

(* Record the [k] logged bytes into their provenance histories: base
   mutations of a forensic store only. *)
let record store mark ~ev k =
  match store.hists with
  | None -> ()
  | Some hists ->
    let addrs = Pages.change_addrs store.pages in
    for i = 0 to k - 1 do
      record_one hists mark ~ev addrs.(i)
    done

let record_segment store mark ~ev addr n =
  match store.hists with
  | None -> ()
  | Some hists ->
    for a = addr to addr + n - 1 do
      record_one hists mark ~ev a
    done

(* Counters move once per event, not once per byte: an enabled counter
   is an atomic add. *)
let count c n = if n > 0 then Obs.Counter.add c n

(* The flag bits a mutation through this handle sets on what it stores. *)
let journal_bit journaling = if journaling then bit_journaled else 0

let write t addr size ~ts ~ev ~loc ~nt ~post =
  let store = t.store in
  let journaling = journaling t in
  (* A store's target does not depend on the byte's old state, so each
     segment is one fill; only [bit_post] survives from the old byte. *)
  let target = Pstore.write_target store.ps ~nt in
  let set = target lor (if post then bit_post else 0) lor journal_bit journaling in
  let keep = if post then 0 else bit_post in
  let to_pending = Pages.has target Pages.bit_pending in
  let word = Pstore.word store.ps ~stamp:ts loc in
  (* One page lookup and one or two column lookups per page segment. *)
  let stop = addr + size and a = ref addr in
  while !a < stop do
    let n = Int.min (stop - !a) (Pages.page_size - Pages.offset !a) in
    if journaling then begin
      save store !a n;
      if to_pending then push_pending store.j !a n
    end
    else record_segment store (if nt then Nt_write else Write) ~ev !a n;
    Pages.update store.pages !a n ~keep ~set;
    Pstore.fill_at store.ps ~word:0 !a n word;
    a := !a + n
  done;
  count
    (match Pstore.state target with
    | Pstate.Writeback_pending -> c_to_writeback
    | Pstate.Persisted -> c_to_persisted
    | Pstate.Modified | Pstate.Unmodified -> c_to_modified)
    size

let flush_line t line ~ev =
  let store = t.store in
  let journaling = journaling t in
  let found = Pstore.flush_line store.ps line ~set:(journal_bit journaling) in
  (match found with
  | `Had_modified ->
    let k = Pages.changes store.pages in
    (* Where a captured byte lands is the model's call: ADR parks it
       writeback-pending until a fence, CXL-GPF persists it on arrival at
       the device (eADR never has modified bytes to capture). *)
    let to_pending = Pstore.flush_pends store.ps in
    if journaling then begin
      save_changes store k;
      if to_pending then push_pending store.j line Addr.line_size
    end
    else record store Flush ~ev k;
    count (if to_pending then c_to_writeback else c_to_persisted) k
  | `Clean | `Waste _ -> ());
  found

(* A divergence's fence promotes only bytes it made pending itself: a
   byte the base left pending belongs to the canonical prefix until the
   divergence stores to it.  Those are exactly the journaled pending
   bytes (a divergence journals every byte it stores, and only its own
   stores and flushes make a byte pending), so the pending segments —
   every store and flushed line that made bytes pending since the last
   fence — may cover more: their bytes without [bit_journaled] are left
   alone, and so are those an overwrite since left not pending. *)
let fence t ~ev =
  let store = t.store in
  if journaling t then begin
    let j = store.j in
    let n = j.p_n in
    j.p_n <- 0;
    count c_to_persisted
      (Pstore.fence_segments store.ps j.p_addr j.p_len n ~having:bit_journaled ~set:bit_journaled)
  end
  else begin
    let k = Pstore.fence store.ps ~set:0 ~log:(Option.is_some store.hists) in
    record store Fence ~ev k;
    count c_to_persisted k
  end

(* A divergence's GPF drains the outstanding bytes it wrote itself (the
   journaled bytes with [bit_post]): data the crash dropped stays
   dropped. *)
let gpf t ~ev =
  let store = t.store in
  if journaling t then begin
    let j = store.j in
    count c_to_persisted
      (Pstore.gpf_segments store.ps j.s_addr j.s_len j.n ~having:bit_post ~set:bit_journaled)
  end
  else begin
    let k = Pstore.gpf store.ps ~set:0 ~log:(Option.is_some store.hists) in
    record store Fence ~ev k;
    count c_to_persisted k
  end

let mark_alloc_raw t addr size ~ev =
  let store = t.store in
  let journaling = journaling t in
  let set = Pstore.pack Pstate.Unmodified lor bit_uninit lor journal_bit journaling in
  let stop = addr + size and a = ref addr in
  while !a < stop do
    let off = Pages.offset !a in
    let n = Int.min (stop - !a) (Pages.page_size - off) in
    if journaling then save store !a n
    else record_segment store Alloc ~ev !a n;
    Pages.update store.pages !a n ~keep:0 ~set;
    a := !a + n
  done;
  count c_to_unmodified size

let tracked_bytes t =
  if t.gen = 0 then Pages.tracked_bytes t.store.pages
  else if t.store.live = t.gen then t.store.j.distinct
  else 0

let pending_bytes t = if live t then Pages.pending_bytes t.store.pages else 0

let iter_tracked t f =
  Pages.iter_tracked t.store.pages (fun addr _packed ->
      match find t addr with Some c -> f addr c | None -> ())
