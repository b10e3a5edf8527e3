(* Copy-on-write snapshot equivalence: CoW snapshots must be
   indistinguishable from the legacy eager deep copies — byte-identical
   crash images in every mode, identical detection verdicts — while copying
   only the delta.  The oracle is twofold: [Device.deep_snapshot] (the
   legacy representation) and a replay oracle (a fresh device that re-runs
   the op prefix, deep by construction). *)

module Ctx = Xfd_sim.Ctx
module Device = Xfd_mem.Pm_device
module Image = Xfd_mem.Image
module Addr = Xfd_mem.Addr
module Trace = Xfd_trace.Trace

let l = Tu.loc __POS__
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

let crash_agrees a b mode =
  let ia = Device.crash a mode in
  let ok = image_agrees ia b mode in
  Image.release ia;
  ok

let modes = [ Device.Full; Device.Strict ]

let equivalence_props =
  [
    QCheck.Test.make ~count:300
      ~name:"CoW snapshot + crash equals deep-copy and replay oracles (Full & Strict)"
      script_arb
      (fun (ops, k) ->
        let d = Device.create () in
        List.iter (apply d) (take k ops);
        let s_cow = Device.snapshot d in
        let s_deep = Device.deep_snapshot d in
        (* The engine's failure-point capture: the crash image itself. *)
        let captured = List.map (fun mode -> (mode, Device.crash d mode)) modes in
        (* The live device keeps mutating: CoW isolation must hold. *)
        List.iteri (fun i op -> if i >= k then apply d op) ops;
        (* The replay oracle is deep by construction. *)
        let oracle = Device.create () in
        List.iter (apply oracle) (take k ops);
        let ok =
          List.for_all
            (fun (mode, img) ->
              crash_agrees s_cow s_deep mode
              && crash_agrees s_cow oracle mode
              && image_agrees img s_deep mode
              && image_agrees img oracle mode)
            captured
          && Device.dirty_bytes s_cow = Device.dirty_bytes oracle
          && Device.pending_bytes s_cow = Device.pending_bytes oracle
        in
        List.iter (fun (_, img) -> Image.release img) captured;
        Device.release s_cow;
        Device.release s_deep;
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
            let s = Device.snapshot d in
            let crash_img = Device.crash s Device.Full in
            let before = Image.read (Device.image d) base window in
            let snap_before = Image.read (Device.image s) base window in
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
              && Bytes.equal snap_before (Image.read (Device.image s) base window)
            in
            Device.release booted;
            Device.release s;
            Device.release d;
            ok)
          [ Device.boot; Device.boot_image_only ]);
  ]

(* Engine-verdict equivalence: a minimal replica of [Engine.detect]'s
   per-failure-point pipeline (snapshot at ordering points, crash + boot,
   recovery run, incremental replay, post fork), parameterised by the
   snapshot function.  CoW and deep-copy snapshotting must produce the same
   verdicts on buggy and clean programs alike. *)
let verdicts_with snapf (p : Xfd.Engine.program) =
  let dev = Device.create () in
  let trace = Trace.create () in
  let snaps = ref [] in
  let hook _ctx = snaps := (snapf dev, Trace.length trace) :: !snaps in
  let ctx = Ctx.create ~on_failure_point:hook ~stage:Ctx.Pre_failure ~dev ~trace () in
  p.Xfd.Engine.setup ctx;
  (match p.Xfd.Engine.pre ctx with () -> () | exception Ctx.Detection_complete -> ());
  snaps := (snapf dev, Trace.length trace) :: !snaps;
  let det = Xfd.Detector.create () in
  let pre_pos = ref 0 in
  let keys =
    List.concat_map
      (fun (sdev, pos) ->
        let crash_img = Device.crash sdev Device.Full in
        let post_dev = Device.boot crash_img in
        Image.release crash_img;
        Device.release sdev;
        let post_trace = Trace.create () in
        let post_ctx = Ctx.create ~stage:Ctx.Post_failure ~dev:post_dev ~trace:post_trace () in
        (match p.Xfd.Engine.post post_ctx with
        | () -> ()
        | exception Ctx.Detection_complete -> ()
        | exception _ -> ());
        Device.release post_dev;
        Xfd.Detector.replay det trace ~from:!pre_pos ~upto:pos;
        pre_pos := pos;
        let fork = Xfd.Detector.fork_for_post det in
        Xfd.Detector.replay fork post_trace ~from:0 ~upto:(Trace.length post_trace);
        List.map Xfd.Report.dedup_key (Xfd.Detector.bugs fork))
      (List.rev !snaps)
  in
  Device.release dev;
  keys

let verdict_cases =
  let check name program =
    Tu.case name (fun () ->
        let cow = verdicts_with Device.snapshot program in
        let deep = verdicts_with Device.deep_snapshot program in
        Alcotest.(check (list string)) (name ^ ": verdicts") deep cow)
  in
  [
    check "btree verdicts identical under CoW and deep snapshots"
      (Xfd_workloads.Btree.program ~init_size:1 ~size:2 ());
    check "hashmap-atomic verdicts identical under CoW and deep snapshots"
      (Xfd_workloads.Hashmap_atomic.program ~size:2 ());
    check "linkedlist (naive recovery) verdicts identical under CoW and deep snapshots"
      (Xfd_workloads.Linkedlist.program ~size:2 ());
  ]

(* Unit-level behaviour of the CoW machinery itself. *)
let cow_unit_tests =
  [
    Tu.case "snapshot copies only the cache-state delta" (fun () ->
        let d = Device.create () in
        for i = 0 to 99 do
          Device.store_i64 d (base + (i * Image.chunk_size)) 1L;
          Device.clwb d (base + (i * Image.chunk_size))
        done;
        Device.sfence d;
        Device.store d base (Bytes.of_string "abc") (* 3 dirty bytes *);
        let before = Option.get (Xfd_obs.Obs.counter_value "pm.snapshot_bytes") in
        let s = Device.snapshot d in
        let eager = Option.get (Xfd_obs.Obs.counter_value "pm.snapshot_bytes") - before in
        Alcotest.(check int) "eager bytes = dirty + pending" 3 eager;
        Alcotest.(check bool)
          "images fully shared" true
          (Image.shared_bytes (Device.image s) = Image.footprint (Device.image s));
        Device.release s;
        Device.release d);
    Tu.case "writes after snapshot raise CoW faults, not snapshot changes" (fun () ->
        let d = Device.create () in
        Device.store_i64 d base 1L;
        let s = Device.snapshot d in
        let faults0 = Option.get (Xfd_obs.Obs.counter_value "pm.cow_faults") in
        Device.store_i64 d base 2L;
        Device.store_i64 d (base + 8) 3L (* same chunk: one fault only *);
        let faults = Option.get (Xfd_obs.Obs.counter_value "pm.cow_faults") - faults0 in
        Alcotest.(check int) "one fault per chunk" 1 faults;
        Alcotest.check Tu.i64 "snapshot keeps old value" 1L (Device.load_i64 s base);
        Alcotest.check Tu.i64 "device sees new value" 2L (Device.load_i64 d base);
        Device.release s;
        Device.release d);
    Tu.case "release returns live chunk accounting to baseline" (fun () ->
        let live0 = Image.live_bytes () in
        let d = Device.create () in
        for i = 0 to 9 do
          Device.store_i64 d (base + (i * Image.chunk_size)) 1L
        done;
        let s1 = Device.snapshot d in
        let s2 = Device.snapshot d in
        Device.store_i64 d base 2L (* CoW fault while two snapshots share *);
        Alcotest.(check bool) "accounting grew" true (Image.live_bytes () > live0);
        Device.release s1;
        Device.release s2;
        Device.release d;
        Alcotest.(check int) "back to baseline" live0 (Image.live_bytes ()));
    Tu.case "deep_snapshot shares nothing" (fun () ->
        let d = Device.create () in
        Device.store_i64 d base 1L;
        let s = Device.deep_snapshot d in
        Alcotest.(check int) "no shared bytes" 0 (Image.shared_bytes (Device.image s));
        Alcotest.(check int)
          "device shares nothing either" 0
          (Image.shared_bytes (Device.image d));
        Device.release s;
        Device.release d);
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
    ("cow.verdicts", verdict_cases);
  ]
