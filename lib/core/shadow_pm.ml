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
   writeback-pending — the only bytes its fences may promote (base-pending
   bytes belong to the canonical prefix).  [index] maps the first
   [indexed] entries' addresses to their positions; only base reads
   during a live divergence need it, so it is filled on their demand.

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
  if not store.record_hist then None
  else
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
  for i = j.n - 1 downto 0 do
    let addr = j.j_addr.(i) in
    (* The captured byte predates the divergence, so it never carries
       [bit_journaled]; restoring it also heals the bitmaps and counts. *)
    Pages.set store.pages addr j.j_packed.(i);
    match Pstore.meta store.ps addr with
    | Some m ->
      let off = Pstore.offset addr in
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

let grow a fill = Array.append a (Array.make (Array.length a) fill)

(* Capture [addr]'s pre-divergence value, once. *)
let journal store addr packed =
  if not (Pages.has packed bit_journaled) then begin
    let j = store.j in
    if j.n = Array.length j.j_addr then begin
      j.j_addr <- grow j.j_addr 0;
      j.j_packed <- grow j.j_packed 0;
      j.j_tlast <- grow j.j_tlast (-1);
      j.j_writer <- grow j.j_writer Loc.unknown
    end;
    j.j_addr.(j.n) <- addr;
    j.j_packed.(j.n) <- packed;
    j.j_tlast.(j.n) <- tlast_of store addr;
    j.j_writer.(j.n) <- writer_of store addr;
    j.n <- j.n + 1
  end

let push_pending j addr =
  if j.pending_n = Array.length j.pending_post then j.pending_post <- grow j.pending_post 0;
  j.pending_post.(j.pending_n) <- addr;
  j.pending_n <- j.pending_n + 1

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

(* Store a packed byte, journaling the pre-image when the handle is a
   divergence.  Divergence-written bytes carry [bit_journaled] so capture
   and base-read resolution stay O(1); a byte the divergence makes
   writeback-pending joins [pending_post], the set its own fences
   promote. *)
let put journaling store addr ~old packed =
  if not journaling then Pages.set store.pages addr (packed land lnot bit_journaled)
  else begin
    journal store addr old;
    if Pages.has packed Pages.bit_pending && not (Pages.has old Pages.bit_pending) then
      push_pending store.j addr;
    Pages.set store.pages addr (packed lor bit_journaled)
  end

(* The history a mutation records into: base mutations only. *)
let recording journaling store addr = if journaling then None else own_hist store addr

(* Counters move once per event, not once per byte: an enabled counter
   is an atomic add. *)
let count c n = if n > 0 then Obs.Counter.add c n

let write t addr size ~ts ~ev ~loc ~nt ~post =
  let store = t.store in
  let journaling = journaling t in
  let domain = Pstore.domain store.ps in
  let next = if nt then Pstate.on_nt_write_in domain else Pstate.on_write_in domain in
  let to_pending = ref 0 and to_persisted = ref 0 in
  for a = addr to addr + size - 1 do
    let old = Pages.get store.pages a in
    let pst' = next (Pstore.state old) in
    if Pstate.equal pst' Pstate.Writeback_pending then incr to_pending
    else if Pstate.equal pst' Pstate.Persisted then incr to_persisted;
    let packed = Pstore.pack pst' lor (if post then bit_post else old land bit_post) in
    put journaling store a ~old packed;
    let m = Pstore.own_meta store.ps a in
    let off = Pstore.offset a in
    m.tlast.(off) <- ts;
    m.writer.(off) <- loc;
    match recording journaling store a with
    | Some h -> History.record_write h ~ev ~nt
    | None -> ()
  done;
  count c_to_writeback !to_pending;
  count c_to_persisted !to_persisted;
  count c_to_modified (size - !to_pending - !to_persisted)

let flush_line t line ~ev =
  let store = t.store in
  let journaling = journaling t in
  let to_pending = ref 0 and to_persisted = ref 0 in
  (* Where a captured byte lands is the model's call: ADR parks it
     writeback-pending until a fence, CXL-GPF persists it on arrival at
     the device (eADR never has modified bytes to capture). *)
  let found =
    Pstore.flush_line store.ps line (fun a ~old packed ->
        incr (if Pages.has packed Pages.bit_pending then to_pending else to_persisted);
        put journaling store a ~old packed;
        match recording journaling store a with
        | Some h -> History.record_flush h ~ev
        | None -> ())
  in
  count c_to_writeback !to_pending;
  count c_to_persisted !to_persisted;
  found

(* Promotion at an ordering point: the byte persists. *)
let persisted journaling store ~ev a ~old packed =
  Obs.Counter.incr c_to_persisted;
  put journaling store a ~old packed;
  match recording journaling store a with Some h -> History.record_fence h ~ev | None -> ()

(* A divergence's fence or GPF promotes only bytes it made pending itself:
   base-pending bytes belong to the canonical prefix, and data the crash
   dropped stays dropped.  Entries whose pending bit was since cleared by
   an overwrite are skipped.  A promoted byte was pending already, so it
   never re-enters [pending_post] while the loop reads it. *)
let promote_own store ~ev =
  let j = store.j in
  let n = j.pending_n in
  j.pending_n <- 0;
  let store_fn = persisted true store ~ev in
  for i = 0 to n - 1 do
    Pstore.promote store.ps j.pending_post.(i) store_fn
  done

let fence t ~ev =
  let store = t.store in
  if journaling t then promote_own store ~ev
  else Pstore.fence store.ps (persisted false store ~ev)

let gpf t ~ev =
  let store = t.store in
  if journaling t then promote_own store ~ev
  else Pstore.gpf store.ps (persisted false store ~ev)

let mark_alloc_raw t addr size ~ev =
  let store = t.store in
  let journaling = journaling t in
  let packed = Pstore.pack Pstate.Unmodified lor bit_uninit in
  for a = addr to addr + size - 1 do
    put journaling store a ~old:(Pages.get store.pages a) packed;
    match recording journaling store a with
    | Some h -> History.record_alloc h ~ev
    | None -> ()
  done;
  count c_to_unmodified size

let tracked_bytes t =
  if t.gen = 0 then Pages.tracked_bytes t.store.pages
  else if t.store.live = t.gen then t.store.j.n
  else 0

let iter_tracked t f =
  Pages.iter_tracked t.store.pages (fun addr _packed ->
      match find t addr with Some c -> f addr c | None -> ())
