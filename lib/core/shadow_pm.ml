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

(* The delta journal of one post-failure divergence: for every byte the
   post-failure replay touches, the pre-divergence packed byte and cold
   fields, captured once ([bit_journaled] dedups).  [index] lets base
   reads resolve journaled bytes to their pre-divergence value while the
   divergence is live.  [pending_post] lists the bytes the divergence
   itself made writeback-pending — the only bytes its fences may promote
   (base-pending bytes belong to the canonical prefix). *)
type div = {
  mutable n : int;
  mutable j_addr : int array;
  mutable j_packed : int array;
  mutable j_tlast : int array;
  mutable j_writer : Loc.t array;
  index : (int, int) Hashtbl.t;
  mutable pending_post : int list;
}

type store = {
  ps : meta Pstore.t;
  pages : Pages.t;  (* [Pstore.pages ps], kept at hand for the hot paths *)
  record_hist : bool;
  mutable active : div option;
}

type t = { store : store; div : div option }

let create ?(forensics = false) ?(domain = Xfd_trace.Domain_model.Adr) () =
  let ps =
    Pstore.create ~domain (fun () ->
        {
          tlast = Array.make Pages.page_size (-1);
          writer = Array.make Pages.page_size Loc.unknown;
          hist = (if forensics then Some (Array.make Pages.page_size None) else None);
        })
  in
  { store = { ps; pages = Pstore.pages ps; record_hist = forensics; active = None }; div = None }

let domain t = Pstore.domain t.store.ps

let release t =
  Pstore.release t.store.ps;
  t.store.active <- None

let is_active store d = match store.active with Some d' -> d' == d | None -> false

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

let rewind_div store d =
  Obs.Counter.incr c_rewinds;
  for i = d.n - 1 downto 0 do
    let addr = d.j_addr.(i) in
    (* The captured byte predates the divergence, so it never carries
       [bit_journaled]; restoring it also heals the bitmaps and counts. *)
    Pages.set store.pages addr d.j_packed.(i);
    match Pstore.meta store.ps addr with
    | Some m ->
      let off = Pstore.offset addr in
      m.tlast.(off) <- d.j_tlast.(i);
      m.writer.(off) <- d.j_writer.(i)
    | None -> ()
  done;
  d.n <- 0;
  Hashtbl.reset d.index;
  d.pending_post <- [];
  store.active <- None

(* Any base-layer mutation invalidates the outstanding divergence: the
   canonical prefix is moving on, so the journal is unwound first.  Base
   *reads* do not unwind — they resolve through the journal instead. *)
let ensure_base store =
  match store.active with Some d -> rewind_div store d | None -> ()

let grow_journal d =
  let cap = Array.length d.j_addr in
  if d.n = cap then begin
    let g a fill = Array.append a (Array.make cap fill) in
    d.j_addr <- g d.j_addr 0;
    d.j_packed <- g d.j_packed 0;
    d.j_tlast <- g d.j_tlast (-1);
    d.j_writer <- g d.j_writer Loc.unknown
  end

(* Capture [addr]'s pre-divergence value, once. *)
let journal d store addr packed =
  if not (Pages.has packed bit_journaled) then begin
    grow_journal d;
    d.j_addr.(d.n) <- addr;
    d.j_packed.(d.n) <- packed;
    d.j_tlast.(d.n) <- tlast_of store addr;
    d.j_writer.(d.n) <- writer_of store addr;
    Hashtbl.replace d.index addr d.n;
    d.n <- d.n + 1
  end

let overlay t =
  let store = t.store in
  ensure_base store;
  let d =
    {
      n = 0;
      j_addr = Array.make 64 0;
      j_packed = Array.make 64 0;
      j_tlast = Array.make 64 (-1);
      j_writer = Array.make 64 Loc.unknown;
      index = Hashtbl.create 64;
      pending_post = [];
    }
  in
  store.active <- Some d;
  { store; div = Some d }

let rewind t =
  match t.div with
  | None -> ()
  | Some d -> if is_active t.store d then rewind_div t.store d

(* Which journal should a mutation through this handle write to?  A base
   handle first unwinds any live divergence; an overlay handle must still
   own the store's single divergence slot. *)
let writing_div t =
  match t.div with
  | None ->
    ensure_base t.store;
    None
  | Some d ->
    if not (is_active t.store d) then
      invalid_arg "Shadow_pm: overlay used after its divergence was rewound";
    Some d

(* ------------------------------------------------------------------ *)
(* Reads *)

let cell_of store addr packed =
  let pstate = Pstore.state packed in
  let uninit = Pages.has packed bit_uninit and post_written = Pages.has packed bit_post in
  match Pstore.meta store.ps addr with
  | None -> { pstate; tlast = -1; writer = Loc.unknown; uninit; post_written; hist = None }
  | Some m ->
    let off = Pstore.offset addr in
    let hist = match m.hist with Some rows -> rows.(off) | None -> None in
    { pstate; tlast = m.tlast.(off); writer = m.writer.(off); uninit; post_written; hist }

let find t addr =
  let store = t.store in
  let packed = Pages.get store.pages addr in
  match t.div with
  | Some _ ->
    (* Overlay reads see the divergence: its bytes were written in place. *)
    if packed = 0 then None else Some (cell_of store addr packed)
  | None -> (
    match store.active with
    | Some d when Pages.has packed bit_journaled -> (
      match Hashtbl.find_opt d.index addr with
      | Some i ->
        let old = d.j_packed.(i) in
        if old = 0 then None
        else
          Some
            {
              pstate = Pstore.state old;
              tlast = d.j_tlast.(i);
              writer = d.j_writer.(i);
              uninit = Pages.has old bit_uninit;
              post_written = Pages.has old bit_post;
              hist = hist_of store addr;
            }
      | None -> if packed = 0 then None else Some (cell_of store addr packed))
    | Some _ | None -> if packed = 0 then None else Some (cell_of store addr packed))

(* ------------------------------------------------------------------ *)
(* Writes *)

(* Store a packed byte, journaling the pre-image when a divergence owns
   the handle.  Divergence-written bytes carry [bit_journaled] so capture
   and base-read resolution stay O(1); a byte the divergence makes
   writeback-pending joins [pending_post], the set its own fences
   promote. *)
let put div store addr ~old packed =
  match div with
  | None -> Pages.set store.pages addr (packed land lnot bit_journaled)
  | Some d ->
    journal d store addr old;
    if Pages.has packed Pages.bit_pending && not (Pages.has old Pages.bit_pending) then
      d.pending_post <- addr :: d.pending_post;
    Pages.set store.pages addr (packed lor bit_journaled)

let record_hist div store addr f =
  match div with
  | Some _ -> ()
  | None -> ( match own_hist store addr with Some h -> f h | None -> ())

let write_byte t addr ~ts ~ev ~loc ~nt ~post =
  let store = t.store in
  let div = writing_div t in
  let old = Pages.get store.pages addr in
  let domain = Pstore.domain store.ps in
  let pst = Pstore.state old in
  let pst' = if nt then Pstate.on_nt_write_in domain pst else Pstate.on_write_in domain pst in
  let pending = Pstate.equal pst' Pstate.Writeback_pending in
  Obs.Counter.incr
    (if pending then c_to_writeback
     else if Pstate.equal pst' Pstate.Persisted then c_to_persisted
     else c_to_modified);
  let packed = Pstore.pack pst' lor (if post then bit_post else old land bit_post) in
  put div store addr ~old packed;
  let m = Pstore.own_meta store.ps addr in
  let off = Pstore.offset addr in
  m.tlast.(off) <- ts;
  m.writer.(off) <- loc;
  record_hist div store addr (fun h -> History.record_write h ~ev ~nt)

let flush_line t line ~ev =
  let store = t.store in
  let div = writing_div t in
  (* Where a captured byte lands is the model's call: ADR parks it
     writeback-pending until a fence, CXL-GPF persists it on arrival at
     the device (eADR never has modified bytes to capture). *)
  Pstore.flush_line store.ps line (fun a ~old packed ->
      Obs.Counter.incr
        (if Pages.has packed Pages.bit_pending then c_to_writeback else c_to_persisted);
      put div store a ~old packed;
      record_hist div store a (fun h -> History.record_flush h ~ev))

(* Promotion at an ordering point: the byte persists. *)
let persisted div store ~ev a ~old packed =
  Obs.Counter.incr c_to_persisted;
  put div store a ~old packed;
  record_hist div store a (fun h -> History.record_fence h ~ev)

(* A divergence's fence or GPF promotes only bytes it made pending itself:
   base-pending bytes belong to the canonical prefix, and data the crash
   dropped stays dropped.  Entries whose pending bit was since cleared by
   an overwrite are skipped. *)
let promote_own d store ~ev =
  let mine = List.rev d.pending_post in
  d.pending_post <- [];
  Pstore.promote store.ps mine (persisted (Some d) store ~ev)

let fence t ~ev =
  let store = t.store in
  match writing_div t with
  | None -> Pstore.fence store.ps (persisted None store ~ev)
  | Some d -> promote_own d store ~ev

let gpf t ~ev =
  let store = t.store in
  match writing_div t with
  | None -> Pstore.gpf store.ps (persisted None store ~ev)
  | Some d -> promote_own d store ~ev

let mark_alloc_raw t addr size ~ev =
  let store = t.store in
  let div = writing_div t in
  Addr.iter_bytes addr size (fun a ->
      let old = Pages.get store.pages a in
      Obs.Counter.incr c_to_unmodified;
      let packed = Pstore.pack Pstate.Unmodified lor bit_uninit in
      put div store a ~old packed;
      record_hist div store a (fun h -> History.record_alloc h ~ev))

let tracked_bytes t =
  match t.div with
  | None -> Pages.tracked_bytes t.store.pages
  | Some d -> if is_active t.store d then d.n else 0

let iter_tracked t f =
  Pages.iter_tracked t.store.pages (fun addr _packed ->
      match find t addr with Some c -> f addr c | None -> ())
