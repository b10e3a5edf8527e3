module Event = Xfd_trace.Event
module Addr = Xfd_mem.Addr
module Loc = Xfd_util.Loc
module Pages = Xfd_mem.Shadow_pages
module Pstate = Xfd.Pstate
module Pstore = Xfd.Pstore

type hit =
  | Tx_unlogged_write of { loc : Loc.t; addr : Addr.t; size : int }
  | Redundant_flush of { loc : Loc.t; line : Addr.t; already : Pstate.flush_waste }
  | Duplicate_tx_add of { loc : Loc.t; addr : Addr.t; size : int }

type info = {
  state : Pstate.t;
  writer : Loc.t;
  write_epoch : int;
  flush : (Loc.t * int) option;
}

(* Per-byte state lives in a {!Xfd.Pstore}, shared in layout with the
   detector's shadow, and so do the cold fields: word [w_write] holds the
   last store's epoch and writer, word [w_flush] the capturing flush's
   epoch and location (zero while no flush captured the store). *)
let w_write = 0
let w_flush = 1

type t = {
  ps : Pstore.t;
  pages : Pages.t;  (* [Pstore.pages ps], kept at hand for the hot paths *)
  mutable epoch : int;
  mutable in_roi : bool;
  mutable skip_depth : int;
  mutable tx_depth : int;
  mutable tx_ranges : (Addr.t * int) list;
  mutable events : int;
  on_hit : hit -> unit;
}

let create ?(domain = Xfd_trace.Domain_model.Adr) ?(on_hit = fun _ -> ()) () =
  let ps = Pstore.create ~domain ~words:2 in
  {
    ps;
    pages = Pstore.pages ps;
    epoch = 0;
    in_roi = false;
    skip_depth = 0;
    tx_depth = 0;
    tx_ranges = [];
    events = 0;
    on_hit;
  }

let release t = Pstore.release t.ps

let checking t = t.in_roi && t.skip_depth = 0
let epoch t = t.epoch
let in_tx t = t.tx_depth > 0
let events t = t.events

let on_write t loc addr size ~nt =
  if checking t && t.tx_depth > 0 then begin
    let covered = List.exists (fun r -> Addr.overlap r (addr, size)) t.tx_ranges in
    if not covered then t.on_hit (Tx_unlogged_write { loc; addr; size })
  end;
  let packed = Pstore.write_target t.ps ~nt in
  let write = Pstore.word t.ps ~stamp:t.epoch loc in
  let flush = if nt then write else 0 in
  (* One page lookup and two column lookups per page segment. *)
  let stop = addr + size and a = ref addr in
  while !a < stop do
    let off = Pages.offset !a in
    let n = Int.min (stop - !a) (Pages.page_size - off) in
    Pages.update t.pages !a n ~keep:0 ~set:packed;
    Pstore.fill_at t.ps ~word:w_write !a n write;
    Pstore.fill_at t.ps ~word:w_flush !a n flush;
    a := !a + n
  done

(* Stamp the flush at [loc] in this epoch on the [k] bytes the last
   transfer stored (the pages' change log). *)
let stamp_flush t k loc =
  if k > 0 then
    Pstore.set_logged t.ps ~word:w_flush k (Pstore.word t.ps ~stamp:t.epoch loc)

let on_flush t loc addr =
  let line = Addr.line_of addr in
  match Pstore.flush_line t.ps line ~set:0 with
  | `Had_modified -> stamp_flush t (Pages.changes t.pages) loc
  | `Waste already when checking t -> t.on_hit (Redundant_flush { loc; line; already })
  | `Waste _ | `Clean -> ()

(* The epoch ticks at every fence, in every model: fences still order
   program points even where they persist nothing. *)
let on_fence t =
  ignore (Pstore.fence t.ps ~set:0 ~log:false);
  t.epoch <- t.epoch + 1

(* The global persistent flush barrier: where the model honours it, every
   outstanding byte becomes persistent at once and the barrier is an
   ordering point; elsewhere the event is inert. *)
let on_gpf t loc =
  if Pstate.persists_at_gpf (Pstore.domain t.ps) then begin
    stamp_flush t (Pstore.gpf t.ps ~set:0 ~log:true) loc;
    t.epoch <- t.epoch + 1
  end

let feed t ev =
  t.events <- t.events + 1;
  let loc = ev.Event.loc in
  match ev.Event.kind with
  | Event.Write { addr; size } -> on_write t loc addr size ~nt:false
  | Event.Nt_write { addr; size } -> on_write t loc addr size ~nt:true
  | Event.Clwb { addr } | Event.Clflush { addr } | Event.Clflushopt { addr } ->
    on_flush t loc addr
  | Event.Sfence | Event.Mfence -> on_fence t
  | Event.Gpf -> on_gpf t loc
  | Event.Tx_begin ->
    t.tx_depth <- t.tx_depth + 1;
    if t.tx_depth = 1 then t.tx_ranges <- []
  | Event.Tx_add { addr; size } | Event.Tx_xadd { addr; size } ->
    if t.tx_depth > 0 then begin
      if
        checking t
        && List.exists (fun r -> Addr.overlap r (addr, size)) t.tx_ranges
        && (match ev.Event.kind with Event.Tx_add _ -> true | _ -> false)
      then t.on_hit (Duplicate_tx_add { loc; addr; size });
      t.tx_ranges <- (addr, size) :: t.tx_ranges
    end
  | Event.Tx_alloc { addr; size; _ } ->
    if t.tx_depth > 0 then t.tx_ranges <- (addr, size) :: t.tx_ranges
  | Event.Tx_commit | Event.Tx_abort ->
    t.tx_depth <- max 0 (t.tx_depth - 1);
    if t.tx_depth = 0 then t.tx_ranges <- []
  | Event.Tx_free _ -> ()
  | Event.Roi_begin -> t.in_roi <- true
  | Event.Roi_end -> t.in_roi <- false
  | Event.Skip_detection_begin -> t.skip_depth <- t.skip_depth + 1
  | Event.Skip_detection_end -> t.skip_depth <- max 0 (t.skip_depth - 1)
  | Event.Read _ | Event.Commit_var _ | Event.Commit_range _ | Event.Marker _ -> ()

let info_of t a packed : info =
  let write = Pstore.word_at t.ps ~word:w_write a in
  let flush = Pstore.word_at t.ps ~word:w_flush a in
  {
    state = Pstore.state packed;
    writer = Pstore.loc t.ps write;
    write_epoch = Pstore.stamp write;
    flush =
      (if flush = 0 then None else Some (Pstore.loc t.ps flush, Pstore.stamp flush));
  }

let info t a =
  let packed = Pages.get t.pages a in
  if packed = 0 then None else Some (info_of t a packed)

let unpersisted t =
  let acc = ref [] in
  Pstore.iter_outstanding t.ps (fun a packed -> acc := (a, info_of t a packed) :: !acc);
  !acc
