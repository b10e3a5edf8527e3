module Addr = Xfd_mem.Addr
module Pages = Xfd_mem.Shadow_pages

type 'm t = {
  pages : Pages.t;
  domain : Xfd_trace.Domain_model.t;
  make_meta : unit -> 'm;
  (* The packed bytes a store and a non-temporal store leave, and the
     codes a flushed modified byte, a fenced pending byte and a byte
     drained by the GPF barrier take; whether fences and the barrier
     persist at all. *)
  write_packed : int;
  nt_write_packed : int;
  flush_code : int;
  fence_code : int;
  gpf_code : int;
  fence_persists : bool;
  gpf_persists : bool;
  (* Page index to the page's slot in [metas], -1 for a miss.  Each slot
     holds the option {!meta} returns, so a lookup allocates nothing. *)
  meta_index : Xfd_util.Int_table.t;
  mutable metas : 'm option array;
  mutable n_metas : int;
  (* One-entry cache: [last_meta] is the page [last_idx]'s fields. *)
  mutable last_idx : int;
  mutable last_meta : 'm option;
}

let c_modified = Pstate.code Pstate.Modified
let c_pending = Pstate.code Pstate.Writeback_pending
let c_persisted = Pstate.code Pstate.Persisted

let state packed = Pstate.of_code (Pages.state_of packed)
let pending_bit code = if code = c_pending then Pages.bit_pending else 0

let pack s =
  let code = Pstate.code s in
  code lor Pages.bit_tracked lor pending_bit code

let all_states = Pstate.[ Unmodified; Modified; Writeback_pending; Persisted ]

let create ~domain make_meta =
  let constant f = List.for_all (fun s -> Pstate.equal (f s) (f Pstate.Unmodified)) all_states in
  (* The write kernels store one target per event, whatever each byte
     held before: that holds in every model. *)
  assert (constant (Pstate.on_write_in domain) && constant (Pstate.on_nt_write_in domain));
  let drain = Pstate.on_gpf_in domain in
  assert (
    Pstate.equal (drain Pstate.Modified) (drain Pstate.Writeback_pending)
    || not (Pstate.persists_at_gpf domain));
  {
    pages = Pages.create ();
    domain;
    make_meta;
    write_packed = pack (Pstate.on_write_in domain Pstate.Unmodified);
    nt_write_packed = pack (Pstate.on_nt_write_in domain Pstate.Unmodified);
    flush_code = Pstate.code (Pstate.on_flush_in domain Pstate.Modified);
    fence_code = Pstate.code (Pstate.on_fence_in domain Pstate.Writeback_pending);
    gpf_code = Pstate.code (drain Pstate.Modified);
    fence_persists = Pstate.persists_at_fence domain;
    gpf_persists = Pstate.persists_at_gpf domain;
    meta_index = Xfd_util.Int_table.create 16;
    metas = [||];
    n_metas = 0;
    last_idx = -1;
    last_meta = None;
  }

let domain t = t.domain
let pages t = t.pages

let release t =
  Pages.release t.pages;
  Xfd_util.Int_table.clear t.meta_index;
  t.metas <- [||];
  t.n_metas <- 0;
  t.last_idx <- -1;
  t.last_meta <- None

let page_index addr = addr lsr 12
let offset = Pages.offset

let meta t addr =
  let idx = page_index addr in
  if idx = t.last_idx then t.last_meta
  else
    let slot = Xfd_util.Int_table.find t.meta_index idx in
    if slot < 0 then None
    else begin
      let r = Array.unsafe_get t.metas slot in
      t.last_idx <- idx;
      t.last_meta <- r;
      r
    end

let own_meta t addr =
  match meta t addr with
  | Some m -> m
  | None ->
    let m = t.make_meta () in
    let r = Some m in
    let idx = page_index addr in
    if t.n_metas = Array.length t.metas then begin
      let metas = Array.make (max 8 (2 * t.n_metas)) None in
      Array.blit t.metas 0 metas 0 t.n_metas;
      t.metas <- metas
    end;
    t.metas.(t.n_metas) <- r;
    Xfd_util.Int_table.replace t.meta_index idx t.n_metas;
    t.n_metas <- t.n_metas + 1;
    t.last_idx <- idx;
    t.last_meta <- r;
    m

(* ------------------------------------------------------------------ *)
(* Transfers *)

let write_target t ~nt = if nt then t.nt_write_packed else t.write_packed
let flush_pends t = t.flush_code = c_pending
let restate_bits code set = code lor pending_bit code lor set
let only code = 1 lsl code

(* One pass restates the modified bytes and classifies the line: when
   it held none, nothing was stored. *)
let flush_line t line ~set =
  let states =
    Pages.scan_restate t.pages line Addr.line_size ~states:(only c_modified)
      ~bits:(restate_bits t.flush_code set)
  in
  if states land only c_modified <> 0 then `Had_modified
  else if states land only c_pending <> 0 then `Waste Pstate.Double_flush
  else if states land only c_persisted <> 0 then `Waste Pstate.Unnecessary_flush
  else `Clean

(* Restate the selected bytes of each of the [n] segments; answers how
   many were stored. *)
let restate_segments t addrs lens n ~states ~having ~bits =
  let k = ref 0 in
  for i = 0 to n - 1 do
    k := !k + Pages.restate t.pages addrs.(i) lens.(i) ~states ~having ~bits
  done;
  !k

let fence t ~set ~log =
  if not t.fence_persists then 0
  else
    Pages.restate_all t.pages ~pending:true ~states:(only c_pending)
      ~bits:(restate_bits t.fence_code set) ~log

let fence_segments t addrs lens n ~having ~set =
  if not t.fence_persists then 0
  else
    restate_segments t addrs lens n ~states:(only c_pending) ~having
      ~bits:(restate_bits t.fence_code set)

let outstanding_states = only c_modified lor only c_pending

let gpf t ~set ~log =
  if not t.gpf_persists then 0
  else
    Pages.restate_all t.pages ~pending:false ~states:outstanding_states
      ~bits:(restate_bits t.gpf_code set) ~log

let gpf_segments t addrs lens n ~having ~set =
  if not t.gpf_persists then 0
  else
    restate_segments t addrs lens n ~states:outstanding_states ~having
      ~bits:(restate_bits t.gpf_code set)

let iter_outstanding t f =
  Pages.iter_tracked t.pages (fun a packed ->
      if outstanding_states land only (Pages.state_of packed) <> 0 then f a packed)
