(* Reference model of a tracking [Xfd_mem.Pm_device]: the per-byte cache
   model the device kept before its page bitmaps, one hash-table cell per
   dirty byte and one per flushed-but-unfenced byte (holding the value the
   flush captured).  Every answer follows from the per-byte rules:

   - a store dirties its bytes; an NT store makes them pending with the
     stored value;
   - a flush makes every dirty byte of its line pending with its current
     value;
   - a fence writes every pending byte's captured value to the persisted
     image;
   - a GPF drains the pending bytes and then writes every dirty byte's
     current value, so the latest store wins;
   - a [Randomized] crash visits the in-flight lines in address order,
     one RNG draw per line, and an evicted line writes each pending byte's
     captured value, else each dirty byte's current value.

   It is slow where the device is fast (a flush probes 64 cells, a fence
   visits every pending byte), and that is the point: there is no bitmap,
   run or line-buffer arithmetic to get wrong.  The mem.device_model
   property runs random operation sequences against both and compares
   them. *)

module Addr = Xfd_mem.Addr
module Image = Xfd_mem.Image

type t = {
  img : Image.t;
  persisted : Image.t;
  dirty : (Addr.t, unit) Hashtbl.t;
  pending : (Addr.t, char) Hashtbl.t;
}

let of_images img persisted =
  { img; persisted; dirty = Hashtbl.create 64; pending = Hashtbl.create 64 }

let create () = of_images (Image.create ()) (Image.create ())
let load t addr size = Image.read t.img addr size

let store t addr b =
  Image.write t.img addr b;
  Addr.iter_bytes addr (Bytes.length b) (fun a -> Hashtbl.replace t.dirty a ())

let store_nt t addr b =
  Image.write t.img addr b;
  Addr.iter_bytes addr (Bytes.length b) (fun a ->
      Hashtbl.remove t.dirty a;
      Hashtbl.replace t.pending a (Image.read_byte t.img a))

let clwb t addr =
  Addr.iter_bytes (Addr.line_of addr) Addr.line_size (fun a ->
      if Hashtbl.mem t.dirty a then begin
        Hashtbl.remove t.dirty a;
        Hashtbl.replace t.pending a (Image.read_byte t.img a)
      end)

let clflush = clwb

let sfence t =
  Hashtbl.iter (fun a v -> Image.write_byte t.persisted a v) t.pending;
  Hashtbl.reset t.pending

let gpf t =
  sfence t;
  Hashtbl.iter (fun a () -> Image.write_byte t.persisted a (Image.read_byte t.img a)) t.dirty;
  Hashtbl.reset t.dirty

let dirty_bytes t = Hashtbl.length t.dirty
let pending_bytes t = Hashtbl.length t.pending

let is_persisted_range t addr size =
  let ok = ref true in
  Addr.iter_bytes addr size (fun a ->
      if Hashtbl.mem t.dirty a || Hashtbl.mem t.pending a then ok := false
      else if not (Char.equal (Image.read_byte t.persisted a) (Image.read_byte t.img a)) then
        ok := false);
  !ok

let crash t (mode : Xfd_mem.Pm_device.crash_mode) =
  match mode with
  | Full -> Image.snapshot t.img
  | Strict -> Image.snapshot t.persisted
  | Randomized rng ->
    let out = Image.snapshot t.persisted in
    let lines = Hashtbl.create 16 in
    Hashtbl.iter (fun a () -> Hashtbl.replace lines (Addr.line_of a) ()) t.dirty;
    Hashtbl.iter (fun a _ -> Hashtbl.replace lines (Addr.line_of a) ()) t.pending;
    let lines = List.sort Int.compare (Hashtbl.fold (fun l () acc -> l :: acc) lines []) in
    List.iter
      (fun line ->
        if Xfd_util.Rng.bool rng then
          Addr.iter_bytes line Addr.line_size (fun a ->
              match Hashtbl.find_opt t.pending a with
              | Some v -> Image.write_byte out a v
              | None ->
                if Hashtbl.mem t.dirty a then Image.write_byte out a (Image.read_byte t.img a)))
      lines;
    out

let boot img = of_images (Image.snapshot img) (Image.snapshot img)

let release t =
  Image.release t.img;
  Image.release t.persisted;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.pending
