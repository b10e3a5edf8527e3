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
    Tu.case "copy_range" (fun () ->
        let src = Image.create () and dst = Image.create () in
        Image.write src 50 (b "abcdef");
        Image.copy_range ~src ~dst 50 6;
        Alcotest.(check bytes) "copied" (b "abcdef") (Image.read dst 50 6));
    Tu.case "equal_range" (fun () ->
        let x = Image.create () and y = Image.create () in
        Image.write x 10 (b "aa");
        Alcotest.(check bool) "differ" false (Image.equal_range x y 10 2);
        Image.write y 10 (b "aa");
        Alcotest.(check bool) "equal" true (Image.equal_range x y 10 2));
    Tu.case "iter_chunks in address order" (fun () ->
        let img = Image.create () in
        Image.write_byte img 100_000 'x';
        Image.write_byte img 5 'y';
        let bases = ref [] in
        Image.iter_chunks img (fun base _ -> bases := base :: !bases);
        Alcotest.(check bool) "sorted" true (List.rev !bases = List.sort compare (List.rev !bases)));
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
        let s = Device.snapshot d in
        Device.store_i64 d 0 2L;
        Alcotest.check Tu.i64 "snapshot value" 1L (Device.load_i64 s 0);
        Device.clwb d 0;
        Device.sfence d;
        Alcotest.(check bool) "snapshot still dirty" true (Device.dirty_bytes s > 0));
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

let suite =
  [
    ("mem.addr", addr_tests);
    ("mem.image", image_tests);
    ("mem.device", device_tests);
    ("mem.image_only", image_only_tests);
    ("mem.recycle", recycle_tests);
  ]
