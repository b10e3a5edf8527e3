(* Tests for the Table 1 crash-consistency mechanisms: functional
   behaviour, crash-recovery correctness from strict images at every
   failure point, and detection verdicts on correct vs seeded-buggy
   variants. *)

module Ctx = Xfd_sim.Ctx
module Device = Xfd_mem.Pm_device
module Redo = Xfd_mechanisms.Redo_log
module Ckpt = Xfd_mechanisms.Checkpoint
module Shadow = Xfd_mechanisms.Shadow_obj
module Ring = Xfd_mechanisms.Checksum_ring
module Oplog = Xfd_mechanisms.Op_log

let l = Tu.loc __POS__

let tally p = Tu.tally_of p
let clean p = Tu.check_clean "mechanism" (Tu.detect p)

let redo_tests =
  [
    Tu.case "transact applies updates" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let t = Redo.create ctx in
        Redo.transact ctx t ~variant:`Correct [ (3, 30L); (5, 50L) ];
        Alcotest.check Tu.i64 "slot 3" 30L (Redo.get ctx t 3);
        Alcotest.check Tu.i64 "slot 5" 50L (Redo.get ctx t 5));
    Tu.case "committed transaction survives a strict crash mid-apply" (fun () ->
        (* Crash right after the commit flag persists: the log must replay. *)
        let v =
          Tu.crash_boot
            ~pre:(fun ctx ->
              let t = Redo.create ctx in
              (* replicate transact up to (and including) the commit *)
              Redo.transact ctx t ~variant:`Correct [ (1, 11L) ];
              (* second transaction interrupted after commit: write log by
                 hand through the public API is not possible, so use the
                 full transact — the strict image after completion must
                 still satisfy recovery idempotently *)
              Redo.transact ctx t ~variant:`Correct [ (2, 22L) ])
            ~mode:Device.Strict
            ~post:(fun ctx ->
              let t = Redo.open_ ctx in
              Redo.recover ctx t;
              (Redo.get ctx t 1, Redo.get ctx t 2))
        in
        Alcotest.check Tu.i64 "slot 1" 11L (fst v);
        Alcotest.check Tu.i64 "slot 2" 22L (snd v));
    Tu.case "recovery is atomic at every failure point" (fun () ->
        (* After recovery from ANY strict crash image, each transaction is
           all-or-nothing: slots (0,1) are updated together. *)
        let images =
          Tu.strict_crash_points
            ~setup:(fun ctx ->
              let t = Redo.create ctx in
              Redo.transact ctx t ~variant:`Correct [ (0, 0L); (1, 100L) ])
            ~pre:(fun ctx ->
              let t = Redo.open_ ctx in
              Ctx.roi_begin ctx ~loc:l;
              Redo.transact ctx t ~variant:`Correct [ (0, 1L); (1, 101L) ];
              Redo.transact ctx t ~variant:`Correct [ (0, 2L); (1, 102L) ];
              Ctx.roi_end ctx ~loc:l)
        in
        Alcotest.(check bool) "several points" true (List.length images > 4);
        List.iteri
          (fun i img ->
            Tu.on_image img (fun ctx ->
                let t = Redo.open_ ctx in
                Redo.recover ctx t;
                let a = Redo.get ctx t 0 and b = Redo.get ctx t 1 in
                if not (Int64.equal (Int64.add a 100L) b) then
                  Alcotest.failf "image %d: torn transaction (%Ld, %Ld)" i a b))
          images);
    Tu.case "log capacity enforced" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let t = Redo.create ctx in
        Alcotest.check_raises "full" (Invalid_argument "Redo_log.transact: log full")
          (fun () ->
            Redo.transact ctx t ~variant:`Correct
              (List.init (Redo.log_capacity + 1) (fun i -> (i mod Redo.slots, 0L)))));
    Tu.case "correct variant is clean under detection" (fun () -> clean (Redo.program ()));
    Tu.case "apply-before-commit races" (fun () ->
        let r, _, _, _ = tally (Redo.program ~variant:`Apply_before_commit ()) in
        Alcotest.(check bool) "race" true (r >= 1));
    Tu.case "commit-before-entries is semantically inconsistent" (fun () ->
        let _, s, _, _ = tally (Redo.program ~variant:`Commit_before_entries ()) in
        Alcotest.(check bool) "semantic" true (s >= 1));
  ]

let ckpt_tests =
  [
    Tu.case "checkpoint then recover restores the snapshot" (fun () ->
        let v =
          Tu.crash_boot
            ~pre:(fun ctx ->
              let t = Ckpt.create ctx in
              Ckpt.set ctx t 0 7L;
              Ckpt.checkpoint ctx t ~variant:`Correct;
              (* post-checkpoint mutation that never gets checkpointed *)
              Ckpt.set ctx t 0 999L)
            ~mode:Device.Strict
            ~post:(fun ctx ->
              let t = Ckpt.open_ ctx in
              Ckpt.recover ctx t ~variant:`Correct;
              Ckpt.get ctx t 0)
        in
        Alcotest.check Tu.i64 "rolled back to the checkpoint" 7L v);
    Tu.case "recovery lands on a committed checkpoint at every failure point" (fun () ->
        (* All slots carry the round number, so a recovered working area
           must be uniform — any mix means a torn checkpoint was used. *)
        let images =
          Tu.strict_crash_points
            ~setup:(fun ctx ->
              let t = Ckpt.create ctx in
              for i = 0 to Ckpt.slots - 1 do
                Ckpt.set ctx t i 0L
              done;
              Ckpt.checkpoint ctx t ~variant:`Correct)
            ~pre:(fun ctx ->
              let t = Ckpt.open_ ctx in
              Ctx.roi_begin ctx ~loc:l;
              for r = 1 to 3 do
                for i = 0 to Ckpt.slots - 1 do
                  Ckpt.set ctx t i (Int64.of_int r)
                done;
                Ckpt.checkpoint ctx t ~variant:`Correct
              done;
              Ctx.roi_end ctx ~loc:l)
        in
        List.iteri
          (fun n img ->
            Tu.on_image img (fun ctx ->
                let t = Ckpt.open_ ctx in
                Ckpt.recover ctx t ~variant:`Correct;
                let v0 = Ckpt.get ctx t 0 in
                for i = 1 to Ckpt.slots - 1 do
                  if not (Int64.equal (Ckpt.get ctx t i) v0) then
                    Alcotest.failf "image %d: torn checkpoint restored" n
                done))
          images);
    Tu.case "correct variant is clean under detection" (fun () -> clean (Ckpt.program ()));
    Tu.case "restoring an old checkpoint is a stale semantic bug" (fun () ->
        let o = Tu.detect (Ckpt.program ~variant:`Restore_old ()) in
        let stale =
          List.exists
            (function
              | Xfd.Report.Semantic s -> s.Xfd.Report.status = Xfd.Cstate.Stale
              | _ -> false)
            o.Xfd.Engine.unique_bugs
        in
        Alcotest.(check bool) "stale" true stale);
    Tu.case "flipping the selector first is flagged" (fun () ->
        let r, s, _, _ = tally (Ckpt.program ~variant:`Flip_first ()) in
        Alcotest.(check bool) "flagged" true (r + s >= 1));
  ]

let shadow_tests =
  [
    Tu.case "copy-on-write updates read back" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let t = Shadow.create ctx in
        Shadow.update_field ctx t ~variant:`Correct 2 42L;
        Shadow.update_field ctx t ~variant:`Correct 5 55L;
        Alcotest.check Tu.i64 "field 2" 42L (Shadow.read_field ctx t 2);
        Alcotest.check Tu.i64 "field 5" 55L (Shadow.read_field ctx t 5));
    Tu.case "updates are atomic across strict crashes" (fun () ->
        (* Field 0 and field 1 are always updated in one copy-on-write
           step; crash images must never mix them. *)
        let images =
          Tu.strict_crash_points
            ~setup:(fun ctx ->
              let t = Shadow.create ctx in
              Shadow.update_field ctx t ~variant:`Correct 0 0L)
            ~pre:(fun ctx ->
              let t = Shadow.open_ ctx in
              Ctx.roi_begin ctx ~loc:l;
              for r = 1 to 3 do
                (* one COW step changing field 0; field 1 keeps 0 *)
                Shadow.update_field ctx t ~variant:`Correct 0 (Int64.of_int r)
              done;
              Ctx.roi_end ctx ~loc:l)
        in
        List.iteri
          (fun n img ->
            Tu.on_image img (fun ctx ->
                let t = Shadow.open_ ctx in
                let v = Shadow.read_field ctx t 0 in
                if Int64.compare v 0L < 0 || Int64.compare v 3L > 0 then
                  Alcotest.failf "image %d: impossible field value %Ld" n v))
          images);
    Tu.case "correct variant is clean under detection" (fun () -> clean (Shadow.program ()));
    Tu.case "swap-before-persist races" (fun () ->
        let r, _, _, _ = tally (Shadow.program ~variant:`Swap_before_persist ()) in
        Alcotest.(check bool) "race" true (r >= 1));
    Tu.case "in-place update races" (fun () ->
        let r, _, _, _ = tally (Shadow.program ~variant:`In_place ()) in
        Alcotest.(check bool) "race" true (r >= 1));
  ]

let ring_tests =
  [
    Tu.case "append and recover round trip" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let t = Ring.create ctx ~variant:`Correct in
        Ring.append ctx t "alpha";
        Ring.append ctx t "beta";
        let payloads = Ring.recover ctx t ~variant:`Correct in
        Alcotest.(check int) "two records" 2 (List.length payloads);
        Alcotest.(check bool) "first" true
          (String.length (List.nth payloads 0) >= 5
          && String.sub (List.nth payloads 0) 0 5 = "alpha"));
    Tu.case "capacity enforced" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let t = Ring.create ctx ~variant:`Correct in
        match
          for i = 1 to Ring.capacity + 1 do
            Ring.append ctx t (string_of_int i)
          done
        with
        | () -> Alcotest.fail "expected failure"
        | exception Failure _ -> ());
    Tu.case "verified recovery accepts only an append prefix, at every failure point"
      (fun () ->
        let expected = List.init 4 (fun i -> Printf.sprintf "rec-%d" i) in
        let images =
          Tu.strict_crash_points
            ~setup:(fun ctx -> ignore (Ring.create ctx ~variant:`Correct))
            ~pre:(fun ctx ->
              let t = Ring.open_ ctx ~variant:`Correct in
              Ctx.roi_begin ctx ~loc:l;
              List.iter (fun p -> Ring.append ctx t p) expected;
              Ctx.roi_end ctx ~loc:l)
        in
        Alcotest.(check bool) "manual failure points present" true (List.length images > 8);
        List.iteri
          (fun n img ->
            Tu.on_image img (fun ctx ->
                let t = Ring.open_ ctx ~variant:`Correct in
                let got = Ring.recover ctx t ~variant:`Correct in
                List.iteri
                  (fun i payload ->
                    let want = List.nth expected i in
                    if String.sub payload 0 (String.length want) <> want then
                      Alcotest.failf "image %d: record %d corrupt" n i)
                  got))
          images);
    Tu.case "unverified recovery can accept a torn record" (fun () ->
        (* The value-level bug the detector cannot see.  Records span two
           cache lines, and real caches may evict either line on its own:
           on randomized crash images the sequence-number line can land
           while the payload tail does not — a torn record that only the
           checksum catches.  Witness: recovery with `No_verify differs
           from verified recovery on some legal crash image. *)
        let images =
          Tu.randomized_crashes ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ]
            ~setup:(fun ctx -> ignore (Ring.create ctx ~variant:`No_verify))
            ~pre:(fun ctx ->
              let t = Ring.open_ ctx ~variant:`No_verify in
              Ctx.roi_begin ctx ~loc:l;
              (* Full-length payloads: a dropped tail line must change the
                 bytes, or the tear would coincide with the zero padding. *)
              Ring.append ctx t (String.init Ring.payload_bytes (fun i -> Char.chr (65 + (i mod 26))));
              Ring.append ctx t (String.init Ring.payload_bytes (fun i -> Char.chr (97 + (i mod 26))));
              Ctx.roi_end ctx ~loc:l)
        in
        let differs =
          List.exists
            (List.exists (fun img ->
                 Tu.on_image img (fun ctx ->
                     let t = Ring.open_ ctx ~variant:`No_verify in
                     Ring.recover ctx t ~variant:`No_verify
                     <> Ring.recover ctx t ~variant:`Correct)))
            images
        in
        Alcotest.(check bool) "verification matters on some crash image" true differs);
    Tu.case "correct (annotated) variant is clean under detection" (fun () ->
        clean (Ring.program ()));
    Tu.case "missing benign annotation reports the intentional races" (fun () ->
        let r, _, _, _ = tally (Ring.program ~variant:`Unannotated ()) in
        Alcotest.(check bool) "races" true (r >= 1));
    Tu.case "manual failure points increase coverage" (fun () ->
        let with_manual = Tu.detect (Ring.program ~records:2 ()) in
        Alcotest.(check bool) "more points than barriers" true
          (with_manual.Xfd.Engine.failure_points > 4));
  ]

let oplog_tests =
  [
    Tu.case "add and scale operations apply" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let t = Oplog.create ctx in
        (* setup-like baseline *)
        Oplog.apply ctx t ~variant:`Correct (Oplog.Add (0, 5L));
        Oplog.apply ctx t ~variant:`Correct (Oplog.Scale (0, 3L));
        Alcotest.check Tu.i64 "(0+5)*3" 15L (Oplog.get ctx t 0));
    Tu.case "recovery is exactly-once at every failure point" (fun () ->
        (* Register 0 starts at 0 and takes Add 7 then Add 5: after
           recovery from any strict image it must hold one of the legal
           intermediate results 0, 7 or 12 — never a double-applied one. *)
        let images =
          Tu.strict_crash_points
            ~setup:(fun ctx -> ignore (Oplog.create ctx))
            ~pre:(fun ctx ->
              let t = Oplog.open_ ctx in
              Ctx.roi_begin ctx ~loc:l;
              Oplog.apply ctx t ~variant:`Correct (Oplog.Add (0, 7L));
              Oplog.apply ctx t ~variant:`Correct (Oplog.Add (0, 5L));
              Ctx.roi_end ctx ~loc:l)
        in
        List.iteri
          (fun n img ->
            Tu.on_image img (fun ctx ->
                let t = Oplog.open_ ctx in
                Oplog.recover ctx t ~variant:`Correct;
                let v = Oplog.get ctx t 0 in
                if not (List.mem v [ 0L; 7L; 12L ]) then
                  Alcotest.failf "image %d: impossible register value %Ld" n v))
          images);
    Tu.case "naive replay double-applies on some crash image" (fun () ->
        let images =
          Tu.strict_crash_points
            ~setup:(fun ctx -> ignore (Oplog.create ctx))
            ~pre:(fun ctx ->
              let t = Oplog.open_ ctx in
              Ctx.roi_begin ctx ~loc:l;
              Oplog.apply ctx t ~variant:`Naive_replay (Oplog.Add (0, 7L));
              Ctx.roi_end ctx ~loc:l)
        in
        let corrupt =
          List.exists
            (fun img ->
              Tu.on_image img (fun ctx ->
                  let t = Oplog.open_ ctx in
                  Oplog.recover ctx t ~variant:`Naive_replay;
                  not (List.mem (Oplog.get ctx t 0) [ 0L; 7L ])))
            images
        in
        Alcotest.(check bool) "double-apply witnessed" true corrupt);
    Tu.case "correct variant clean under detection" (fun () -> clean (Oplog.program ()));
    Tu.case "record-after-commit is semantically inconsistent" (fun () ->
        let _, s, _, _ = tally (Oplog.program ~variant:`Op_after_commit ()) in
        Alcotest.(check bool) "semantic" true (s >= 1));
    Tu.case "naive replay races on the live register" (fun () ->
        let r, _, _, _ = tally (Oplog.program ~variant:`Naive_replay ()) in
        Alcotest.(check bool) "race" true (r >= 1));
  ]

let suite =
  [
    ("mechanisms.redo", redo_tests);
    ("mechanisms.checkpoint", ckpt_tests);
    ("mechanisms.shadow", shadow_tests);
    ("mechanisms.checksum", ring_tests);
    ("mechanisms.oplog", oplog_tests);
  ]
