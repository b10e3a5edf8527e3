(* Copy-on-write crash images.  A failure-point capture must equal the
   crash image of a replay oracle — a fresh device that re-runs the op
   prefix, deep by construction — in every mode, while the live device
   keeps mutating; writes to a device booted from it must never leak back;
   and it copies no byte eagerly. *)

module Device = Xfd_mem.Pm_device
module Image = Xfd_mem.Image
module Addr = Xfd_mem.Addr

let base = Addr.pool_base

(* The op window spans a chunk boundary so CoW faults hit several chunks. *)
let window = 2 * Image.chunk_size

type op = Write of int * char | Nt of int * char | Flush of int | Fence

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun o v -> Write (o, Char.chr (32 + v))) (int_bound (window - 1)) (int_bound 94));
        (2, map2 (fun o v -> Nt (o, Char.chr (32 + v))) (int_bound (window - 1)) (int_bound 94));
        (3, map (fun o -> Flush o) (int_bound (window - 1)));
        (2, return Fence);
      ])

let op_print = function
  | Write (o, c) -> Printf.sprintf "W(%d,%c)" o c
  | Nt (o, c) -> Printf.sprintf "NT(%d,%c)" o c
  | Flush o -> Printf.sprintf "F(%d)" o
  | Fence -> "SF"

let script_arb =
  QCheck.make
    ~print:(fun (ops, k) ->
      Printf.sprintf "snap@%d [%s]" k (String.concat ";" (List.map op_print ops)))
    QCheck.Gen.(
      list_size (int_bound 80) op_gen >>= fun ops ->
      map (fun k -> (ops, k)) (int_bound (max 1 (List.length ops))))

let apply d = function
  | Write (o, c) -> Device.store d (base + o) (Bytes.make 1 c)
  | Nt (o, c) -> Device.store_nt d (base + o) (Bytes.make 1 c)
  | Flush o -> Device.clwb d (base + o)
  | Fence -> Device.sfence d

let take n xs = List.filteri (fun i _ -> i < n) xs

let image_agrees img d mode =
  let id = Device.crash d mode in
  let ok = Image.equal_range img id base window in
  Image.release id;
  ok

(* Each mode made afresh, so a [Randomized] one starts from its seed. *)
let modes =
  [
    (fun () -> Device.Full);
    (fun () -> Device.Strict);
    (fun () -> Device.Randomized (Xfd_util.Rng.create 7L));
  ]

let equivalence_props =
  [
    QCheck.Test.make ~count:300
      ~name:"CoW snapshot + crash equals the replay oracle (Full, Strict & Randomized captures)"
      script_arb
      (fun (ops, k) ->
        let d = Device.create () in
        List.iter (apply d) (take k ops);
        (* The engine's failure-point capture. *)
        let captured = List.map (fun mode -> (mode, Device.capture d (mode ()))) modes in
        (* The live device keeps mutating: CoW isolation must hold. *)
        List.iteri (fun i op -> if i >= k then apply d op) ops;
        let oracle = Device.create () in
        List.iter (apply oracle) (take k ops);
        let ok = List.for_all (fun (mode, img) -> image_agrees img oracle (mode ())) captured in
        List.iter (fun (_, img) -> Image.release img) captured;
        Device.release oracle;
        Device.release d;
        ok);
    QCheck.Test.make ~count:200
      ~name:"post-failure writes to a booted CoW image never leak back" script_arb
      (fun (ops, _) ->
        (* Both boots: the tracking one and the engine's image-only one. *)
        List.for_all
          (fun boot ->
            let d = Device.create () in
            List.iter (apply d) ops;
            let kept = Device.capture d Device.Full in
            let crash_img = Device.capture d Device.Full in
            let before = Image.read (Device.image d) base window in
            (* A recovery run scribbling over every line of its private image. *)
            let booted = boot crash_img in
            Image.release crash_img;
            for line = 0 to (window / 64) - 1 do
              Device.store_i64 booted (base + (line * 64)) 0x5151515151515151L;
              Device.clwb booted (base + (line * 64))
            done;
            Device.sfence booted;
            let ok =
              Bytes.equal before (Image.read (Device.image d) base window)
              && Bytes.equal before (Image.read kept base window)
            in
            Device.release booted;
            Image.release kept;
            Device.release d;
            ok)
          [ Device.boot; Device.boot_image_only ]);
  ]

(* Unit-level behaviour of the CoW machinery itself. *)
let cow_unit_tests =
  [
    Tu.case "snapshot copies only the chunk table: a capture's counters and isolation"
      (fun () ->
        let d = Device.create () in
        for i = 0 to 99 do
          Device.store_i64 d (base + (i * Image.chunk_size)) 1L;
          Device.clwb d (base + (i * Image.chunk_size))
        done;
        Device.sfence d;
        Device.store_i64 d base 5L (* 8 dirty bytes: nothing of them is copied *);
        let counter name = Option.get (Xfd_obs.Obs.counter_value name) in
        let snaps0 = counter "pm.snapshots"
        and eager0 = counter "pm.snapshot_bytes"
        and shared0 = counter "pm.snapshot_shared_bytes" in
        let img = Device.capture d Device.Full in
        Alcotest.(check int) "one snapshot" 1 (counter "pm.snapshots" - snaps0);
        Alcotest.(check int) "no eager bytes" 0 (counter "pm.snapshot_bytes" - eager0);
        Alcotest.(check int)
          "shared bytes = the capture's footprint" (Image.footprint img)
          (counter "pm.snapshot_shared_bytes" - shared0);
        Alcotest.(check bool)
          "image fully shared" true
          (Image.shared_bytes img = Image.footprint img);
        let post = Device.boot_image_only img in
        Device.store_i64 post base 7L;
        Alcotest.check Tu.i64 "the post device sees its write" 7L (Device.load_i64 post base);
        Alcotest.check Tu.i64 "the capture keeps its value" 5L (Image.read_i64 img base);
        Alcotest.check Tu.i64 "so does the live device" 5L (Device.load_i64 d base);
        Device.release post;
        Image.release img;
        Device.release d);
    Tu.case "writes after snapshot raise CoW faults, not snapshot changes" (fun () ->
        let d = Device.create () in
        Device.store_i64 d base 1L;
        let img = Device.capture d Device.Full in
        let faults0 = Option.get (Xfd_obs.Obs.counter_value "pm.cow_faults") in
        Device.store_i64 d base 2L;
        Device.store_i64 d (base + 8) 3L (* same chunk: one fault only *);
        let faults = Option.get (Xfd_obs.Obs.counter_value "pm.cow_faults") - faults0 in
        Alcotest.(check int) "one fault per chunk" 1 faults;
        Alcotest.check Tu.i64 "capture keeps old value" 1L (Image.read_i64 img base);
        Alcotest.check Tu.i64 "device sees new value" 2L (Device.load_i64 d base);
        Image.release img;
        Device.release d);
    Tu.case "release returns live chunk accounting to baseline" (fun () ->
        let live0 = Image.live_bytes () in
        let d = Device.create () in
        for i = 0 to 9 do
          Device.store_i64 d (base + (i * Image.chunk_size)) 1L
        done;
        let c1 = Device.capture d Device.Full in
        let c2 = Device.capture d Device.Strict in
        let post = Device.boot_image_only c1 in
        Device.store_i64 d base 2L (* CoW fault while the captures share *);
        Device.store_i64 post base 3L (* and one in the post device *);
        Alcotest.(check bool) "accounting grew" true (Image.live_bytes () > live0);
        Image.release c1;
        Image.release c2;
        Device.release post;
        Device.release d;
        Alcotest.(check int) "back to baseline" live0 (Image.live_bytes ()));
    Tu.case "detect leaves no live image bytes behind" (fun () ->
        let live0 = Image.live_bytes () in
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:1 ~size:2 ()) in
        Tu.check_clean "btree" o;
        Alcotest.(check int) "all images released" live0 (Image.live_bytes ()));
    Tu.case "detect peak stays O(image + deltas), not O(points x image)" (fun () ->
        let live0 = Image.live_bytes () in
        let shared0 = Option.get (Xfd_obs.Obs.counter_value "pm.snapshot_shared_bytes") in
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:1 ~size:3 ()) in
        let peak_growth = Image.peak_bytes () - live0 in
        let shared =
          (* what this run's F eager copies of both device images would have cost *)
          Option.get (Xfd_obs.Obs.counter_value "pm.snapshot_shared_bytes") - shared0
        in
        Alcotest.(check bool) "some failure points" true (o.Xfd.Engine.failure_points > 2);
        Alcotest.(check bool)
          (Printf.sprintf "peak growth %d well under eager total %d" peak_growth shared)
          true
          (peak_growth > 0 && peak_growth * 2 < shared));
  ]

let to_alcotest = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ("cow.unit", cow_unit_tests);
    ("cow.props", to_alcotest equivalence_props);
  ]
