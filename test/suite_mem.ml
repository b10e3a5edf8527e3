(* Unit tests for the PM substrate: Addr, Image, Pm_device. *)

module Addr = Xfd_mem.Addr
module Image = Xfd_mem.Image
module Device = Xfd_mem.Pm_device

let b = Bytes.of_string

let addr_tests =
  [
    Tu.case "line_of aligns down" (fun () ->
        Alcotest.(check int) "0" 0 (Addr.line_of 0);
        Alcotest.(check int) "63" 0 (Addr.line_of 63);
        Alcotest.(check int) "64" 64 (Addr.line_of 64);
        Alcotest.(check int) "pool base" Addr.pool_base (Addr.line_of (Addr.pool_base + 1)));
    Tu.case "offset_in_line" (fun () ->
        Alcotest.(check int) "0" 0 (Addr.offset_in_line 64);
        Alcotest.(check int) "63" 63 (Addr.offset_in_line 127));
    Tu.case "lines_spanning single byte" (fun () ->
        Alcotest.(check (list int)) "one line" [ 64 ] (Addr.lines_spanning 100 1));
    Tu.case "lines_spanning across boundary" (fun () ->
        Alcotest.(check (list int)) "two lines" [ 0; 64 ] (Addr.lines_spanning 60 8));
    Tu.case "lines_spanning exact line" (fun () ->
        Alcotest.(check (list int)) "one line" [ 64 ] (Addr.lines_spanning 64 64));
    Tu.case "lines_spanning empty" (fun () ->
        Alcotest.(check (list int)) "none" [] (Addr.lines_spanning 64 0));
    Tu.case "overlap detection" (fun () ->
        Alcotest.(check bool) "overlapping" true (Addr.overlap (0, 10) (5, 10));
        Alcotest.(check bool) "touching ends" false (Addr.overlap (0, 10) (10, 10));
        Alcotest.(check bool) "disjoint" false (Addr.overlap (0, 10) (20, 5));
        Alcotest.(check bool) "contained" true (Addr.overlap (0, 100) (40, 2));
        Alcotest.(check bool) "empty" false (Addr.overlap (0, 0) (0, 10)));
    Tu.case "contains" (fun () ->
        Alcotest.(check bool) "inside" true (Addr.contains (10, 5) 12);
        Alcotest.(check bool) "below" false (Addr.contains (10, 5) 9);
        Alcotest.(check bool) "at end" false (Addr.contains (10, 5) 15));
  ]

let image_tests =
  [
    Tu.case "unwritten bytes read as zero" (fun () ->
        let img = Image.create () in
        Alcotest.(check char) "zero" '\000' (Image.read_byte img Addr.pool_base);
        Alcotest.(check bytes) "zeros" (Bytes.make 16 '\000') (Image.read img 12345 16));
    Tu.case "write then read back" (fun () ->
        let img = Image.create () in
        Image.write img 1000 (b "hello world");
        Alcotest.(check bytes) "round trip" (b "hello world") (Image.read img 1000 11));
    Tu.case "write across chunk boundary" (fun () ->
        let img = Image.create () in
        let addr = 4096 - 5 in
        Image.write img addr (b "0123456789");
        Alcotest.(check bytes) "spans chunks" (b "0123456789") (Image.read img addr 10));
    Tu.case "i64 round trip" (fun () ->
        let img = Image.create () in
        Image.write_i64 img 800 0x1122334455667788L;
        Alcotest.check Tu.i64 "same" 0x1122334455667788L (Image.read_i64 img 800));
    Tu.case "snapshot isolates mutations" (fun () ->
        let img = Image.create () in
        Image.write_i64 img 0 1L;
        let snap = Image.snapshot img in
        Image.write_i64 img 0 2L;
        Alcotest.check Tu.i64 "snapshot keeps old" 1L (Image.read_i64 snap 0);
        Image.write_i64 snap 8 9L;
        Alcotest.check Tu.i64 "original unaffected" 0L (Image.read_i64 img 8));
    Tu.case "equal_range" (fun () ->
        let x = Image.create () and y = Image.create () in
        Image.write x 10 (b "aa");
        Alcotest.(check bool) "differ" false (Image.equal_range x y 10 2);
        Image.write y 10 (b "aa");
        Alcotest.(check bool) "equal" true (Image.equal_range x y 10 2));
  ]

let device_tests =
  [
    Tu.case "store visible to load immediately" (fun () ->
        let d = Device.create () in
        Device.store d 0 (b "abc");
        Alcotest.(check bytes) "architectural" (b "abc") (Device.load d 0 3));
    Tu.case "strict crash drops unflushed stores" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 42L;
        let img = Device.crash d Device.Strict in
        Alcotest.check Tu.i64 "dropped" 0L (Image.read_i64 img 0));
    Tu.case "full crash keeps unflushed stores" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 42L;
        let img = Device.crash d Device.Full in
        Alcotest.check Tu.i64 "kept" 42L (Image.read_i64 img 0));
    Tu.case "clwb alone does not persist" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 42L;
        Device.clwb d 0;
        let img = Device.crash d Device.Strict in
        Alcotest.check Tu.i64 "still volatile" 0L (Image.read_i64 img 0));
    Tu.case "clwb + sfence persists" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 42L;
        Device.clwb d 0;
        Device.sfence d;
        let img = Device.crash d Device.Strict in
        Alcotest.check Tu.i64 "persisted" 42L (Image.read_i64 img 0));
    Tu.case "flush captures value at flush time" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 1L;
        Device.clwb d 0;
        Device.store_i64 d 0 2L (* after capture: re-dirties *);
        Device.sfence d;
        let img = Device.crash d Device.Strict in
        (* The fence persists the captured value 1; the store of 2 is
           modified-but-unflushed. *)
        Alcotest.check Tu.i64 "captured value" 1L (Image.read_i64 img 0));
    Tu.case "flush acts on the whole line" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 7L;
        Device.store_i64 d 56 8L;
        Device.clwb d 16;
        Device.sfence d;
        let img = Device.crash d Device.Strict in
        Alcotest.check Tu.i64 "first" 7L (Image.read_i64 img 0);
        Alcotest.check Tu.i64 "last in line" 8L (Image.read_i64 img 56));
    Tu.case "flush does not cross line boundary" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 7L;
        Device.store_i64 d 64 8L;
        Device.clwb d 0;
        Device.sfence d;
        let img = Device.crash d Device.Strict in
        Alcotest.check Tu.i64 "flushed line" 7L (Image.read_i64 img 0);
        Alcotest.check Tu.i64 "other line not" 0L (Image.read_i64 img 64));
    Tu.case "nt store persists at next fence without flush" (fun () ->
        let d = Device.create () in
        Device.store_nt d 0 (b "\x2a\x00\x00\x00\x00\x00\x00\x00");
        Device.sfence d;
        let img = Device.crash d Device.Strict in
        Alcotest.check Tu.i64 "persisted" 42L (Image.read_i64 img 0));
    Tu.case "dirty and pending byte counts" (fun () ->
        let d = Device.create () in
        Device.store d 0 (b "abcd");
        Alcotest.(check int) "dirty" 4 (Device.dirty_bytes d);
        Device.clwb d 0;
        Alcotest.(check int) "dirty drained" 0 (Device.dirty_bytes d);
        Alcotest.(check int) "pending" 4 (Device.pending_bytes d);
        Device.sfence d;
        Alcotest.(check int) "pending drained" 0 (Device.pending_bytes d));
    Tu.case "is_persisted_range" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 1L;
        Alcotest.(check bool) "not yet" false (Device.is_persisted_range d 0 8);
        Device.clwb d 0;
        Device.sfence d;
        Alcotest.(check bool) "now" true (Device.is_persisted_range d 0 8));
    Tu.case "boot starts with clean caches" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 5L;
        let d' = Device.boot (Device.crash d Device.Full) in
        Alcotest.(check int) "no dirty" 0 (Device.dirty_bytes d');
        Alcotest.check Tu.i64 "value survives" 5L (Device.load_i64 d' 0);
        (* After boot, the architectural content counts as persisted. *)
        let img = Device.crash d' Device.Strict in
        Alcotest.check Tu.i64 "persisted after boot" 5L (Image.read_i64 img 0));
    Tu.case "snapshot is independent" (fun () ->
        let d = Device.create () in
        Device.store_i64 d 0 1L;
        let img = Device.capture d Device.Full in
        let s = Device.boot img in
        Device.store_i64 d 0 2L;
        Alcotest.check Tu.i64 "captured value" 1L (Image.read_i64 img 0);
        Alcotest.check Tu.i64 "booted value" 1L (Device.load_i64 s 0);
        Device.store_i64 s 8 3L;
        Alcotest.check Tu.i64 "the live device does not see it" 0L (Device.load_i64 d 8);
        Device.clwb d 0;
        Device.sfence d;
        Alcotest.(check int) "booted device still dirty" 8 (Device.dirty_bytes s);
        Device.release s;
        Image.release img;
        Device.release d);
    Tu.case "randomized crash is between strict and full" (fun () ->
        let d = Device.create () in
        for i = 0 to 9 do
          Device.store_i64 d (i * 64) (Int64.of_int (i + 1))
        done;
        Device.clwb d 0;
        Device.sfence d;
        (* line 0 persisted; lines 1..9 dirty *)
        let rng = Xfd_util.Rng.create 7L in
        let img = Device.crash d (Device.Randomized rng) in
        Alcotest.check Tu.i64 "persisted always kept" 1L (Image.read_i64 img 0);
        for i = 1 to 9 do
          let v = Image.read_i64 img (i * 64) in
          Alcotest.(check bool)
            (Printf.sprintf "line %d zero or value" i)
            true
            (Int64.equal v 0L || Int64.equal v (Int64.of_int (i + 1)))
        done);
    Tu.case "stats counters" (fun () ->
        let d = Device.create () in
        Device.store d 0 (b "x");
        ignore (Device.load d 0 1);
        Device.clwb d 0;
        Device.sfence d;
        let s = Device.stats d in
        Alcotest.(check int) "stores" 1 s.Device.stores;
        Alcotest.(check int) "loads" 1 s.Device.loads;
        Alcotest.(check int) "flushes" 1 s.Device.flushes;
        Alcotest.(check int) "fences" 1 s.Device.fences);
    Tu.case "gpf persists the value stored after a flush, not the flushed one" (fun () ->
        let d = Device.create () in
        Device.store d 0 (b "\001");
        Device.clwb d 0;
        Device.store d 0 (b "\002");
        Device.gpf d;
        Alcotest.(check int) "no dirty bytes" 0 (Device.dirty_bytes d);
        Alcotest.(check int) "no pending bytes" 0 (Device.pending_bytes d);
        let img = Device.crash d Device.Strict in
        Alcotest.(check char) "latest value persisted" '\002' (Image.read_byte img 0);
        Alcotest.(check bool) "persisted range" true (Device.is_persisted_range d 0 1);
        Image.release img;
        Device.release d);
  ]

(* The image-only device that post-failure runs boot: architectural work
   only, no cache model. *)
let image_only_tests =
  let window = 2 * Image.chunk_size in
  (* A pre-failure device with persisted, pending and dirty bytes across
     two chunks, and its Full crash image. *)
  let crashed () =
    let d = Device.create () in
    for i = 0 to 15 do
      Device.store_i64 d (i * 512) (Int64.of_int (i + 1))
    done;
    Device.clwb d 0;
    Device.sfence d;
    Device.clwb d 512;
    (d, Device.crash d Device.Full)
  in
  [
    Tu.case "image-only boot leaves the same architectural bytes as boot" (fun () ->
        let d, img = crashed () in
        let tracked = Device.boot img and bare = Device.boot_image_only img in
        let rng = Xfd_util.Rng.create 11L in
        for _ = 1 to 400 do
          let a = Xfd_util.Rng.int rng (window - 8) in
          let len = 1 + Xfd_util.Rng.int rng 8 in
          let v = Bytes.make len (Char.chr (65 + Xfd_util.Rng.int rng 26)) in
          let op : Device.t -> unit =
            match Xfd_util.Rng.int rng 7 with
            | 0 | 1 -> fun dev -> Device.store dev a v
            | 2 -> fun dev -> Device.store_nt dev a v
            | 3 -> fun dev -> Device.clwb dev a
            | 4 -> fun dev -> Device.clflush dev a
            | 5 -> fun dev -> Device.sfence dev
            | _ -> fun dev -> Device.gpf dev
          in
          op tracked;
          op bare;
          Alcotest.(check bytes) "load" (Device.load tracked a 8) (Device.load bare a 8)
        done;
        List.iter (fun dev -> Device.store dev 0 (b "z")) [ tracked; bare ];
        Alcotest.(check bytes)
          "architectural image"
          (Image.read (Device.image tracked) 0 window)
          (Image.read (Device.image bare) 0 window);
        Alcotest.(check bool) "same stats" true (Device.stats tracked = Device.stats bare);
        Alcotest.(check bool) "the tracking boot did track" true
          (Device.dirty_bytes tracked + Device.pending_bytes tracked > 0);
        Alcotest.(check int) "no dirty bytes" 0 (Device.dirty_bytes bare);
        Alcotest.(check int) "no pending bytes" 0 (Device.pending_bytes bare);
        List.iter Device.release [ tracked; bare; d ];
        Image.release img);
    Tu.case "image-only crash accepts only Full" (fun () ->
        let d, img = crashed () in
        let bare = Device.boot_image_only img in
        Device.store_i64 bare 0 99L;
        let full = Device.crash bare Device.Full in
        Alcotest.check Tu.i64 "Full keeps every architectural byte" 99L (Image.read_i64 full 0);
        List.iter
          (fun (name, mode) ->
            match Device.crash bare mode with
            | _ -> Alcotest.failf "%s crash accepted" name
            | exception Invalid_argument _ -> ())
          [
            ("Strict", Device.Strict);
            ("Randomized", Device.Randomized (Xfd_util.Rng.create 3L));
          ];
        List.iter Image.release [ full; img ];
        List.iter Device.release [ bare; d ]);
    Tu.case "image-only release returns chunk accounting to baseline" (fun () ->
        let live0 = Image.live_bytes () in
        let d, img = crashed () in
        let bare = Device.boot_image_only img in
        Device.store_i64 bare 0 7L (* CoW fault on a shared chunk *);
        Device.store_i64 bare (4 * Image.chunk_size) 7L (* a fresh chunk *);
        Alcotest.(check bool) "accounting grew" true (Image.live_bytes () > live0);
        Image.release img;
        Device.release bare;
        Device.release d;
        Alcotest.(check int) "back to baseline" live0 (Image.live_bytes ()));
  ]

(* Recycled buffers come back as if new: a chunk or page taken from a
   free list carries nothing of its previous owner. *)
let recycle_tests =
  let module Pages = Xfd_mem.Shadow_pages in
  [
    Tu.case "free lists keep at most their bound" (fun () ->
        let l = Xfd_util.Free_list.create ~bound:2 in
        List.iter (Xfd_util.Free_list.give l) [ 1; 2; 3 ];
        Alcotest.(check int) "kept" 2 (Xfd_util.Free_list.length l);
        let take () = Xfd_util.Free_list.take l ~make:(fun () -> 0) in
        let a = take () in
        let b = take () in
        Alcotest.(check (list int)) "pooled items" [ 1; 2 ] (List.sort compare [ a; b ]);
        Alcotest.(check int) "then made" 0 (take ()));
    Tu.case "a recycled chunk reads as zero and a CoW copy as its source" (fun () ->
        let dirty () =
          let img = Image.create () in
          for c = 0 to 3 do
            Image.write img (c * Image.chunk_size) (Bytes.make Image.chunk_size '\xff')
          done;
          Image.release img
        in
        dirty ();
        let img = Image.create () in
        Image.write img 8 (b "x");
        Alcotest.(check bool) "fresh chunk is zero around the write" true
          (Bytes.equal (Image.read img 0 16) (Bytes.init 16 (fun i -> if i = 8 then 'x' else '\000')));
        let snap = Image.snapshot img in
        dirty ();
        Image.write img 9 (b "y");
        Alcotest.(check string) "CoW copy keeps the source bytes" "xy"
          (Bytes.to_string (Image.read img 8 2));
        Alcotest.(check string) "snapshot unchanged" "x\000" (Bytes.to_string (Image.read snap 8 2));
        Image.release snap;
        Image.release img;
        if Image.free_chunks () > Image.free_bound then Alcotest.fail "chunk list over its bound");
    Tu.case "a recycled shadow page starts untracked" (fun () ->
        let p = Pages.create () in
        for k = 0 to 3 do
          Pages.update p (k * Pages.page_size) Pages.page_size ~keep:0
            ~set:(Pages.bit_tracked lor Pages.bit_pending lor 2)
        done;
        Pages.release p;
        let q = Pages.create () in
        Pages.update q 64 8 ~keep:0 ~set:(Pages.bit_tracked lor 1);
        Alcotest.(check int) "tracked" 8 (Pages.tracked_bytes q);
        Alcotest.(check int) "pending" 0 (Pages.pending_bytes q);
        Alcotest.(check int) "a byte nobody stored" 0 (Pages.get q 0);
        Alcotest.(check int) "a page nobody touched" 0 (Pages.get q (9 * Pages.page_size));
        let seen = ref 0 in
        Pages.iter_tracked q (fun _ _ -> incr seen);
        Alcotest.(check int) "bitmap walk" 8 !seen;
        Pages.release q;
        if Pages.free_pages () > Pages.free_bound then Alcotest.fail "page list over its bound");
  ]

(* The device against its per-byte reference model (test/device_model.ml):
   random stores, NT stores, flushes, fences, GPFs, captures and boots
   over ranges that cross line and page boundaries, compared after every
   operation.  A capture boots the second slot from a crash image of the
   first while the first stays live, so writes through either slot must
   not reach the other. *)
module Model = Device_model

type slot = Cur | Booted

(* The crash mode of a capture or boot: a [Randomized] seed, else strict
   or full. *)
type pick = { strict : bool; seed : int option }

type dev_op =
  | D_store of { via : slot; addr : int; size : int; nt : bool; v : int }
  | D_flush of { via : slot; addr : int; opt : bool }
  | D_fence of slot
  | D_gpf of slot
  | D_capture of pick
  | D_boot of pick

let slot_to_string = function Cur -> "cur" | Booted -> "booted"

let pick_to_string { strict; seed } =
  match seed with
  | Some s -> Printf.sprintf "randomized %d" s
  | None -> if strict then "strict" else "full"

let dev_op_to_string = function
  | D_store { via; addr; size; nt; v } ->
    Printf.sprintf "%s.%s %d+%d v%d" (slot_to_string via) (if nt then "store_nt" else "store") addr
      size v
  | D_flush { via; addr; opt } ->
    Printf.sprintf "%s.%s %d" (slot_to_string via) (if opt then "clflush" else "clwb") addr
  | D_fence via -> slot_to_string via ^ ".sfence"
  | D_gpf via -> slot_to_string via ^ ".gpf"
  | D_capture p -> "capture " ^ pick_to_string p
  | D_boot p -> "boot " ^ pick_to_string p

(* Two regions, each across a page boundary, so lines and pages split
   ranges and a randomized crash orders lines across pages. *)
let model_windows = [ (8000, 600); (20380, 360) ]

let model_op_gen =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (3, map (fun i -> 8192 - 192 + i) (int_bound 383)); (1, map (fun i -> 20480 - 100 + i) (int_bound 159)) ]
  in
  let size = frequency [ (4, oneofl [ 1; 2; 4; 8; 8; 16 ]); (2, int_range 1 64); (1, int_range 65 200) ] in
  let via = frequency [ (3, return Cur); (1, return Booted) ] in
  let pick =
    map2
      (fun strict seed -> { strict; seed })
      bool
      (frequency [ (2, return None); (1, map Option.some (int_bound 1000)) ])
  in
  frequency
    [
      ( 6,
        map3
          (fun (via, nt) (addr, size) v -> D_store { via; addr; size; nt; v })
          (pair via (frequency [ (3, return false); (1, return true) ]))
          (pair addr size)
          (* few values, so a store often rewrites what is already there *)
          (frequency [ (1, int_bound 3); (1, int_bound 255) ]) );
      (4, map3 (fun via addr opt -> D_flush { via; addr; opt }) via addr bool);
      (2, map (fun v -> D_fence v) via);
      (1, map (fun v -> D_gpf v) via);
      (1, map (fun p -> D_capture p) pick);
      (1, map (fun p -> D_boot p) pick);
    ]

let devices_agree ops =
  let live0 = Image.live_bytes () in
  let cur = ref (Device.create (), Model.create ()) in
  let booted = ref None in
  let ranges = ref [] in
  let target = function Booted -> Option.value !booted ~default:!cur | Cur -> !cur in
  let release_pair (d, m) =
    Device.release d;
    Model.release m
  in
  let same_crash what (d, m) mode_d mode_m =
    let id = Device.crash d mode_d and im = Model.crash m mode_m in
    let ok =
      List.for_all (fun (lo, n) -> Bytes.equal (Image.read id lo n) (Image.read im lo n)) model_windows
    in
    Image.release id;
    Image.release im;
    if ok then None else Some (what ^ " crash image")
  in
  let compare_pair i (d, m) =
    let rng () = Xfd_util.Rng.create (Int64.of_int (1000 + i)) in
    let checks =
      [
        (if Device.dirty_bytes d = Model.dirty_bytes m then None
         else Some (Printf.sprintf "dirty %d vs %d" (Device.dirty_bytes d) (Model.dirty_bytes m)));
        (if Device.pending_bytes d = Model.pending_bytes m then None
         else
           Some (Printf.sprintf "pending %d vs %d" (Device.pending_bytes d) (Model.pending_bytes m)));
        same_crash "Strict" (d, m) Device.Strict Device.Strict;
        same_crash "Full" (d, m) Device.Full Device.Full;
        same_crash "Randomized" (d, m) (Device.Randomized (rng ())) (Device.Randomized (rng ()));
        List.find_map
          (fun (a, n) ->
            if Device.is_persisted_range d a n = Model.is_persisted_range m a n then None
            else Some (Printf.sprintf "is_persisted_range %d+%d" a n))
          !ranges;
      ]
    in
    List.find_map Fun.id checks
  in
  (* A device and a model booted from the same capture of [pair]. *)
  let boot_from i { strict; seed } (d, m) =
    let mode () =
      match seed with
      | Some s -> Device.Randomized (Xfd_util.Rng.create (Int64.of_int (s + i)))
      | None -> if strict then Device.Strict else Device.Full
    in
    let id = Device.capture d (mode ()) and im = Model.crash m (mode ()) in
    let b = (Device.boot id, Model.boot im) in
    Image.release id;
    Image.release im;
    b
  in
  let step i op =
    match op with
    | D_store { via; addr; size; nt; v } ->
      let bytes = Bytes.init size (fun k -> Char.chr ((v + (k * 7)) land 0xff)) in
      let d, m = target via in
      if nt then begin
        Device.store_nt d addr bytes;
        Model.store_nt m addr bytes
      end
      else begin
        Device.store d addr bytes;
        Model.store m addr bytes
      end;
      if not (List.mem (addr, size) !ranges) then ranges := (addr, size) :: !ranges
    | D_flush { via; addr; opt } ->
      let d, m = target via in
      if opt then Device.clflush d addr else Device.clwb d addr;
      Model.clwb m addr
    | D_fence via ->
      let d, m = target via in
      Device.sfence d;
      Model.sfence m
    | D_gpf via ->
      let d, m = target via in
      Device.gpf d;
      Model.gpf m
    | D_capture p ->
      let b = boot_from i p !cur in
      Option.iter release_pair !booted;
      booted := Some b
    | D_boot p ->
      let b = boot_from i p !cur in
      release_pair !cur;
      cur := b
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest -> (
      step i op;
      let failure =
        match compare_pair i !cur with
        | Some e -> Some ("cur: " ^ e)
        | None ->
          Option.bind !booted (fun p -> Option.map (fun e -> "booted: " ^ e) (compare_pair i p))
      in
      match failure with
      | Some e -> Error (Printf.sprintf "after op %d (%s): %s" i (dev_op_to_string op) e)
      | None -> go (i + 1) rest)
  in
  let result = go 0 ops in
  release_pair !cur;
  Option.iter release_pair !booted;
  match result with
  | Error _ -> result
  | Ok () ->
    if Image.live_bytes () = live0 then Ok ()
    else Error (Printf.sprintf "chunk bytes %d after release, %d before" (Image.live_bytes ()) live0)

(* No [long_factor] here: the nightly job sets QCHECK_LONG_FACTOR. *)
let device_model_prop =
  QCheck.Test.make ~count:200 ~name:"device answers as the per-byte model, captures and boots included"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map dev_op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) model_op_gen))
    (fun ops ->
      match devices_agree ops with Ok () -> true | Error msg -> QCheck.Test.fail_report msg)

let check_devices_agree ops =
  match devices_agree ops with Ok () -> () | Error msg -> Alcotest.fail msg

let device_model_tests =
  [
    Tu.case "model agreement: a flush, a later store and a GPF across a page boundary" (fun () ->
        check_devices_agree
          [
            D_store { via = Cur; addr = 8150; size = 100; nt = false; v = 1 };
            D_flush { via = Cur; addr = 8190; opt = false };
            D_store { via = Cur; addr = 8180; size = 30; nt = false; v = 2 };
            D_capture { strict = false; seed = None };
            D_gpf Cur;
            D_store { via = Booted; addr = 8185; size = 20; nt = true; v = 3 };
            D_flush { via = Booted; addr = 8192; opt = true };
            D_fence Booted;
            D_boot { strict = true; seed = None };
          ]);
    Tu.case "model agreement: a randomized crash draws for lines in address order" (fun () ->
        check_devices_agree
          [
            D_store { via = Cur; addr = 20500; size = 8; nt = false; v = 4 };
            D_store { via = Cur; addr = 20400; size = 8; nt = false; v = 7 };
            D_store { via = Cur; addr = 8000; size = 8; nt = true; v = 5 };
            D_store { via = Cur; addr = 8300; size = 70; nt = false; v = 6 };
            D_store { via = Cur; addr = 8100; size = 150; nt = false; v = 8 };
            D_flush { via = Cur; addr = 8320; opt = false };
            D_boot { strict = false; seed = Some 17 };
          ]);
  ]
  @ [ QCheck_alcotest.to_alcotest device_model_prop ]

let suite =
  [
    ("mem.addr", addr_tests);
    ("mem.image", image_tests);
    ("mem.device", device_tests);
    ("mem.image_only", image_only_tests);
    ("mem.recycle", recycle_tests);
    ("mem.device_model", device_model_tests);
  ]
