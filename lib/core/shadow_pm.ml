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

(* Cold per-byte fields, one parallel page of them per touched 4 KiB page.
   [hist] rows exist only on forensic base layers. *)
type meta = {
  tlast : int array;
  writer : Loc.t array;
  hist : History.t option array option;
}

(* The delta journal of the store's one post-failure divergence: for
   every byte the post-failure replay touches, the pre-divergence packed
   byte and cold fields, captured once ([bit_journaled] dedups).
   [pending_post] lists the bytes the divergence itself made
   writeback-pending — the only bytes its fences may promote (a byte the
   base left pending belongs to the canonical prefix until the divergence
   stores to it).  [index] maps the first [indexed] entries' addresses to
   their positions; only base reads during a live divergence need it, so
   it is filled on their demand.

   The journal is scratch the store owns: a rewind empties it, and the
   next divergence reuses its arrays, so a fork allocates nothing once
   they have grown to the workload's size. *)
type journal = {
  mutable n : int;
  mutable j_addr : int array;
  mutable j_packed : int array;
  mutable j_tlast : int array;
  mutable j_writer : Loc.t array;
  index : Xfd_util.Int_table.t;
  mutable indexed : int;
  mutable pending_post : int array;
  mutable pending_n : int;
}

type store = {
  ps : meta Pstore.t;
  pages : Pages.t;  (* [Pstore.pages ps], kept at hand for the hot paths *)
  record_hist : bool;
  j : journal;
  mutable gens : int;  (* overlays created so far *)
  mutable live : int;  (* generation of the live divergence; 0 = none *)
}

(* A view of the store: the base ([gen = 0]) or the overlay created as
   generation [gen], which is usable while [gen] is the live divergence. *)
type t = { store : store; gen : int }

let journal_capacity = 64
let page_mask = Pages.page_size - 1

let create ?(forensics = false) ?(domain = Xfd_trace.Domain_model.Adr) () =
  let ps =
    Pstore.create ~domain (fun () ->
        {
          tlast = Array.make Pages.page_size (-1);
          writer = Array.make Pages.page_size Loc.unknown;
          hist = (if forensics then Some (Array.make Pages.page_size None) else None);
        })
  in
  let j =
    {
      n = 0;
      j_addr = Array.make journal_capacity 0;
      j_packed = Array.make journal_capacity 0;
      j_tlast = Array.make journal_capacity (-1);
      j_writer = Array.make journal_capacity Loc.unknown;
      index = Xfd_util.Int_table.create journal_capacity;
      indexed = 0;
      pending_post = Array.make journal_capacity 0;
      pending_n = 0;
    }
  in
  {
    store = { ps; pages = Pstore.pages ps; record_hist = forensics; j; gens = 0; live = 0 };
    gen = 0;
  }

let domain t = Pstore.domain t.store.ps

let clear_journal j =
  j.n <- 0;
  Xfd_util.Int_table.clear j.index;
  j.indexed <- 0;
  j.pending_n <- 0

let release t =
  Pstore.release t.store.ps;
  clear_journal t.store.j;
  t.store.live <- 0

let live t = t.gen = 0 || t.store.live = t.gen

let tlast_of store addr =
  match Pstore.meta store.ps addr with None -> -1 | Some m -> m.tlast.(Pstore.offset addr)

let writer_of store addr =
  match Pstore.meta store.ps addr with
  | None -> Loc.unknown
  | Some m -> m.writer.(Pstore.offset addr)

let hist_of store addr =
  match Pstore.meta store.ps addr with
  | Some { hist = Some rows; _ } -> rows.(Pstore.offset addr)
  | Some _ | None -> None

(* The provenance history of [addr], created on first use.  Only base
   mutations record history; divergences read it by reference, exactly as
   the old overlay cells shared their parent's [hist]. *)
let own_hist store addr =
  let m = Pstore.own_meta store.ps addr in
  match m.hist with
  | None -> None
  | Some rows -> (
    let off = Pstore.offset addr in
    match rows.(off) with
    | Some _ as h -> h
    | None ->
      let h = History.create () in
      rows.(off) <- Some h;
      Some h)

(* ------------------------------------------------------------------ *)
(* Divergence journal *)

let rewind_div store =
  Obs.Counter.incr c_rewinds;
  let j = store.j in
  (* The captured bytes predate the divergence, so they never carry
     [bit_journaled]; restoring them also heals the bitmaps and counts. *)
  Pages.restore store.pages j.j_addr j.j_packed j.n;
  let idx = ref (-1) and m = ref None in
  for i = j.n - 1 downto 0 do
    let addr = j.j_addr.(i) in
    if addr lsr 12 <> !idx then begin
      idx := addr lsr 12;
      m := Pstore.meta store.ps addr
    end;
    match !m with
    | Some m ->
      let off = addr land page_mask in
      m.tlast.(off) <- j.j_tlast.(i);
      m.writer.(off) <- j.j_writer.(i)
    | None -> ()
  done;
  clear_journal j;
  store.live <- 0

(* Any base-layer mutation invalidates the outstanding divergence: the
   canonical prefix is moving on, so the journal is unwound first.  Base
   *reads* do not unwind — they resolve through the journal instead. *)
let ensure_base store = if store.live <> 0 then rewind_div store

(* [a] with room for [need] entries, doubling. *)
let grow a need fill =
  if need <= Array.length a then a
  else begin
    let cap = ref (Array.length a) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let a' = Array.make !cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* Journal the [k] bytes the last kernel stored (the pages' change log),
   all on the page whose cold fields are [m]: each byte's pre-divergence
   packed value and cold fields, captured once ([bit_journaled] dedups).
   When the kernel stored [to_pending] bytes, those not yet pending in
   [pending_post] join it, the set the divergence's own fences promote: a
   byte the base left pending joins once the divergence stores to it. *)
let capture store m k ~to_pending =
  let j = store.j in
  let need = j.n + k in
  if need > Array.length j.j_addr then begin
    j.j_addr <- grow j.j_addr need 0;
    j.j_packed <- grow j.j_packed need 0;
    j.j_tlast <- grow j.j_tlast need (-1);
    j.j_writer <- grow j.j_writer need Loc.unknown
  end;
  if to_pending then j.pending_post <- grow j.pending_post (j.pending_n + k) 0;
  let addrs = Pages.change_addrs store.pages and olds = Pages.change_olds store.pages in
  for i = 0 to k - 1 do
    let a = addrs.(i) and old = olds.(i) in
    if old land bit_journaled = 0 then begin
      let n = j.n and off = a land page_mask in
      j.j_addr.(n) <- a;
      j.j_packed.(n) <- old;
      j.j_tlast.(n) <- m.tlast.(off);
      j.j_writer.(n) <- m.writer.(off);
      j.n <- n + 1
    end;
    if to_pending && (old land bit_journaled = 0 || old land Pages.bit_pending = 0) then begin
      j.pending_post.(j.pending_n) <- a;
      j.pending_n <- j.pending_n + 1
    end
  done

let overlay t =
  let store = t.store in
  ensure_base store;
  store.gens <- store.gens + 1;
  store.live <- store.gens;
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

(* The journal position of [addr]'s pre-divergence value, or [-1]. *)
let journal_pos j addr =
  for i = j.indexed to j.n - 1 do
    Xfd_util.Int_table.replace j.index j.j_addr.(i) i
  done;
  j.indexed <- j.n;
  Xfd_util.Int_table.find j.index addr

(* Where this handle reads [addr]'s fields: [-1] for the store itself
   (overlays see their divergence, written in place), else the journal
   position of the pre-divergence copy a base read resolves to. *)
let source t addr =
  let store = t.store in
  if t.gen <> 0 then if store.live = t.gen then -1 else stale "read"
  else if store.live <> 0 && Pages.has (Pages.get store.pages addr) bit_journaled then
    journal_pos store.j addr
  else -1

let packed t addr =
  let i = source t addr in
  if i < 0 then Pages.get t.store.pages addr else t.store.j.j_packed.(i)

let tlast t addr =
  let i = source t addr in
  if i < 0 then tlast_of t.store addr else t.store.j.j_tlast.(i)

let writer t addr =
  let i = source t addr in
  if i < 0 then writer_of t.store addr else t.store.j.j_writer.(i)

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
        hist = hist_of t.store addr;
      }

(* ------------------------------------------------------------------ *)
(* Writes *)

(* Each mutation stores through one {!Pstore} transfer or one
   {!Pages.update} per page segment, then reads the pages' change log: a
   divergence journals the stored bytes (which carry [bit_journaled], so
   capture and base-read resolution stay O(1)); a forensic base layer
   records them into their histories. *)

type mark = Write | Nt_write | Flush | Fence | Alloc

(* Record the [k] logged bytes into their provenance histories: base
   mutations of a forensic store only. *)
let record store mark ~ev k =
  if store.record_hist then begin
    let addrs = Pages.change_addrs store.pages in
    for i = 0 to k - 1 do
      match own_hist store addrs.(i) with
      | Some h -> (
        match mark with
        | Write -> History.record_write h ~ev ~nt:false
        | Nt_write -> History.record_write h ~ev ~nt:true
        | Flush -> History.record_flush h ~ev
        | Fence -> History.record_fence h ~ev
        | Alloc -> History.record_alloc h ~ev)
      | None -> ()
    done
  end

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
  (* One page lookup and one cold-field lookup per page segment. *)
  let stop = addr + size and a = ref addr in
  while !a < stop do
    let off = !a land page_mask in
    let n = min (stop - !a) (Pages.page_size - off) in
    Pages.update store.pages !a n ~keep ~set;
    let m = Pstore.own_meta store.ps !a in
    if journaling then capture store m n ~to_pending
    else record store (if nt then Nt_write else Write) ~ev n;
    Array.fill m.tlast off n ts;
    Array.fill m.writer off n loc;
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
    if journaling then capture store (Pstore.own_meta store.ps line) k ~to_pending
    else record store Flush ~ev k;
    count (if to_pending then c_to_writeback else c_to_persisted) k
  | `Clean | `Waste _ -> ());
  found

(* A divergence's fence promotes only bytes it made pending itself: a
   byte the base left pending belongs to the canonical prefix until the
   divergence stores to it.  Entries whose pending bit was since cleared
   by an overwrite are skipped. *)
let fence t ~ev =
  let store = t.store in
  if journaling t then begin
    let j = store.j in
    let n = j.pending_n in
    j.pending_n <- 0;
    count c_to_persisted (Pstore.fence_list store.ps j.pending_post n ~set:bit_journaled)
  end
  else begin
    let k = Pstore.fence store.ps ~set:0 in
    record store Fence ~ev k;
    count c_to_persisted k
  end

(* A divergence's GPF drains the outstanding bytes it wrote itself (the
   journaled bytes with [bit_post]): data the crash dropped stays
   dropped. *)
let gpf t ~ev =
  let store = t.store in
  if journaling t then
    count c_to_persisted
      (Pstore.gpf_list store.ps store.j.j_addr store.j.n ~having:bit_post ~set:bit_journaled)
  else begin
    let k = Pstore.gpf store.ps ~set:0 in
    record store Fence ~ev k;
    count c_to_persisted k
  end

let mark_alloc_raw t addr size ~ev =
  let store = t.store in
  let journaling = journaling t in
  let set = Pstore.pack Pstate.Unmodified lor bit_uninit lor journal_bit journaling in
  let stop = addr + size and a = ref addr in
  while !a < stop do
    let off = !a land page_mask in
    let n = min (stop - !a) (Pages.page_size - off) in
    Pages.update store.pages !a n ~keep:0 ~set;
    if journaling then capture store (Pstore.own_meta store.ps !a) n ~to_pending:false
    else record store Alloc ~ev n;
    a := !a + n
  done;
  count c_to_unmodified size

let tracked_bytes t =
  if t.gen = 0 then Pages.tracked_bytes t.store.pages
  else if t.store.live = t.gen then t.store.j.n
  else 0

let pending_bytes t = if live t then Pages.pending_bytes t.store.pages else 0

let iter_tracked t f =
  Pages.iter_tracked t.store.pages (fun addr _packed ->
      match find t addr with Some c -> f addr c | None -> ())
