module Addr = Xfd_mem.Addr
module Pages = Xfd_mem.Shadow_pages

type 'm t = {
  pages : Pages.t;
  domain : Xfd_trace.Domain_model.t;
  make_meta : unit -> 'm;
  fence_target : int; (* the code a fence gives a writeback-pending byte *)
  meta : (int, 'm) Hashtbl.t;
  (* One-entry cache: [last_meta] is the page [last_idx]'s fields, kept as
     the option {!meta} returns so a hit allocates nothing. *)
  mutable last_idx : int;
  mutable last_meta : 'm option;
}

let create ~domain make_meta =
  {
    pages = Pages.create ();
    domain;
    make_meta;
    fence_target = Pstate.code (Pstate.on_fence_in domain Pstate.Writeback_pending);
    meta = Hashtbl.create 16;
    last_idx = -1;
    last_meta = None;
  }

let domain t = t.domain
let pages t = t.pages

let release t =
  Pages.release t.pages;
  Hashtbl.reset t.meta;
  t.last_idx <- -1;
  t.last_meta <- None

(* The per-byte loops below compare raw codes: with cross-module inlining
   off (dune's dev profile) a [Pstate] call per byte costs measurably. *)
let c_modified = Pstate.code Pstate.Modified
let c_pending = Pstate.code Pstate.Writeback_pending
let c_persisted = Pstate.code Pstate.Persisted

let state packed = Pstate.of_code (Pages.state_of packed)
let pending_bit code = if code = c_pending then Pages.bit_pending else 0

let pack s =
  let code = Pstate.code s in
  code lor Pages.bit_tracked lor pending_bit code

let repack packed code =
  Pages.with_state packed code land lnot Pages.bit_pending lor pending_bit code

let page_index addr = addr lsr 12
let offset addr = addr land 4095

let meta t addr =
  let idx = page_index addr in
  if idx = t.last_idx then t.last_meta
  else
    match Hashtbl.find_opt t.meta idx with
    | Some _ as r ->
      t.last_idx <- idx;
      t.last_meta <- r;
      r
    | None -> None

let own_meta t addr =
  match meta t addr with
  | Some m -> m
  | None ->
    let m = t.make_meta () in
    let idx = page_index addr in
    Hashtbl.replace t.meta idx m;
    t.last_idx <- idx;
    t.last_meta <- Some m;
    m

let own_range t addr size f =
  let a = ref addr and stop = addr + size in
  while !a < stop do
    let off = offset !a in
    let n = min (stop - !a) (Pages.page_size - off) in
    f (own_meta t !a) off n;
    a := !a + n
  done

type store = Addr.t -> old:int -> int -> unit

let flush_line t line store =
  let modified = ref false and pending = ref false and persisted = ref false in
  (* First pass: only observe, so a wasted flush stores nothing. *)
  Pages.iter_line t.pages line Addr.line_size (fun _ packed ->
      if packed <> 0 then
        let s = Pages.state_of packed in
        if s = c_modified then modified := true
        else if s = c_pending then pending := true
        else if s = c_persisted then persisted := true);
  if !modified then begin
    let target = Pstate.code (Pstate.on_flush_in t.domain Pstate.Modified) in
    Addr.iter_bytes line Addr.line_size (fun a ->
        let old = Pages.get t.pages a in
        if old <> 0 && Pages.state_of old = c_modified then store a ~old (repack old target));
    `Had_modified
  end
  else if !pending then `Waste Pstate.Double_flush
  else if !persisted then `Waste Pstate.Unnecessary_flush
  else `Clean

(* [bit_pending] is set exactly on writeback-pending bytes, so one target
   serves every promoted byte. *)
let promote t a store =
  let old = Pages.get t.pages a in
  if Pages.has old Pages.bit_pending then store a ~old (repack old t.fence_target)

let fence t store =
  if Pstate.persists_at_fence t.domain then
    List.iter (fun a -> promote t a store) (Pages.pending_addrs t.pages)

let outstanding t =
  let acc = ref [] in
  Pages.iter_tracked t.pages (fun a packed ->
      let s = Pages.state_of packed in
      if s = c_modified || s = c_pending then acc := a :: !acc);
  !acc

let gpf t store =
  if Pstate.persists_at_gpf t.domain then
    List.iter
      (fun a ->
        let old = Pages.get t.pages a in
        store a ~old (repack old (Pstate.code (Pstate.on_gpf_in t.domain (state old)))))
      (outstanding t)
