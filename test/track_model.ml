(* Reference model of [Xfd_lint.Track]'s persistence bookkeeping: one
   hash-table entry per written byte holding its [Track.info], stepped
   through the [Xfd.Pstate] transfers one byte at a time.  It shares no
   [Pstore] or [Shadow_pages] code: no packed bytes, no bitmaps, no
   columns, no location table.  A flush looks at every byte of its line,
   a fence and a GPF at every byte written so far.  The lint.track_model
   property feeds random event sequences to both and compares them.

   Only the events that move persistence state are modelled: stores,
   flushes, fences, the GPF barrier and the RoI (inside which a wasted
   flush fires [Redundant_flush]). *)

module Pstate = Xfd.Pstate
module Event = Xfd_trace.Event
module Addr = Xfd_mem.Addr
module Track = Xfd_lint.Track

type t = {
  domain : Xfd_trace.Domain_model.t;
  on_hit : Track.hit -> unit;
  bytes : (Addr.t, Track.info) Hashtbl.t;
  mutable epoch : int;
  mutable in_roi : bool;
}

let create ?(domain = Xfd_trace.Domain_model.Adr) ?(on_hit = fun _ -> ()) () =
  { domain; on_hit; bytes = Hashtbl.create 64; epoch = 0; in_roi = false }

let epoch t = t.epoch
let info t a = Hashtbl.find_opt t.bytes a

let unpersisted t =
  Hashtbl.fold
    (fun a (i : Track.info) acc ->
      match i.state with
      | Pstate.Modified | Pstate.Writeback_pending -> (a, i) :: acc
      | Pstate.Unmodified | Pstate.Persisted -> acc)
    t.bytes []

let state_of t a =
  match Hashtbl.find_opt t.bytes a with Some i -> i.Track.state | None -> Pstate.Unmodified

let write t loc addr size ~nt =
  let step = if nt then Pstate.on_nt_write_in t.domain else Pstate.on_write_in t.domain in
  for a = addr to addr + size - 1 do
    Hashtbl.replace t.bytes a
      {
        Track.state = step (state_of t a);
        writer = loc;
        write_epoch = t.epoch;
        flush = (if nt then Some (loc, t.epoch) else None);
      }
  done

(* The written bytes of a flushed line, in address order. *)
let line_bytes t line =
  List.filter_map
    (fun a -> Option.map (fun i -> (a, i)) (Hashtbl.find_opt t.bytes a))
    (List.init Addr.line_size (fun k -> line + k))

let flush t loc addr =
  let line = Addr.line_of addr in
  let bytes = line_bytes t line in
  let holds s = List.exists (fun (_, (i : Track.info)) -> i.state = s) bytes in
  if holds Pstate.Modified then
    List.iter
      (fun (a, (i : Track.info)) ->
        if i.state = Pstate.Modified then
          Hashtbl.replace t.bytes a
            { i with state = Pstate.on_flush_in t.domain i.state; flush = Some (loc, t.epoch) })
      bytes
  else if t.in_roi then
    let waste already = t.on_hit (Track.Redundant_flush { loc; line; already }) in
    if holds Pstate.Writeback_pending then waste Pstate.Double_flush
    else if holds Pstate.Persisted then waste Pstate.Unnecessary_flush

(* Every written byte, in address order, so a restate never mutates the
   table it walks. *)
let all_bytes t = List.sort compare (Hashtbl.fold (fun a i acc -> (a, i) :: acc) t.bytes [])

let fence t =
  List.iter
    (fun (a, (i : Track.info)) ->
      Hashtbl.replace t.bytes a { i with state = Pstate.on_fence_in t.domain i.state })
    (all_bytes t);
  t.epoch <- t.epoch + 1

let gpf t loc =
  if Pstate.persists_at_gpf t.domain then begin
    List.iter
      (fun (a, (i : Track.info)) ->
        match i.state with
        | Pstate.Modified | Pstate.Writeback_pending ->
          Hashtbl.replace t.bytes a
            { i with state = Pstate.on_gpf_in t.domain i.state; flush = Some (loc, t.epoch) }
        | Pstate.Unmodified | Pstate.Persisted -> ())
      (all_bytes t);
    t.epoch <- t.epoch + 1
  end

let feed t (ev : Event.t) =
  match ev.kind with
  | Event.Write { addr; size } -> write t ev.loc addr size ~nt:false
  | Event.Nt_write { addr; size } -> write t ev.loc addr size ~nt:true
  | Event.Clwb { addr } | Event.Clflush { addr } | Event.Clflushopt { addr } ->
    flush t ev.loc addr
  | Event.Sfence | Event.Mfence -> fence t
  | Event.Gpf -> gpf t ev.loc
  | Event.Roi_begin -> t.in_roi <- true
  | Event.Roi_end -> t.in_roi <- false
  | _ -> invalid_arg "Track_model.feed: event not modelled"
