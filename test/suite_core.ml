(* Unit tests for the detection core: state machines, shadow PM, commit
   registry, detector backend. *)

module Pstate = Xfd.Pstate
module Cstate = Xfd.Cstate
module Shadow = Xfd.Shadow_pm
module Registry = Xfd.Commit_registry
module Detector = Xfd.Detector
module Report = Xfd.Report
module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Loc = Xfd_util.Loc

let l = Loc.make ~file:"t.ml" ~line:1
let l2 = Loc.make ~file:"t.ml" ~line:2

let pstate_tests =
  [
    Tu.case "figure 9 transitions" (fun () ->
        let open Pstate in
        let adr = Xfd_trace.Domain_model.Adr in
        let on_write = on_write_in adr and on_nt_write = on_nt_write_in adr in
        let on_flush = on_flush_in adr and on_fence = on_fence_in adr in
        Alcotest.(check string) "U+w" "M" (to_string (on_write Unmodified));
        Alcotest.(check string) "M+w" "M" (to_string (on_write Modified));
        Alcotest.(check string) "W+w" "M" (to_string (on_write Writeback_pending));
        Alcotest.(check string) "P+w" "M" (to_string (on_write Persisted));
        Alcotest.(check string) "M+f" "W" (to_string (on_flush Modified));
        Alcotest.(check string) "U+f" "U" (to_string (on_flush Unmodified));
        Alcotest.(check string) "P+f" "P" (to_string (on_flush Persisted));
        Alcotest.(check string) "W+sf" "P" (to_string (on_fence Writeback_pending));
        Alcotest.(check string) "M+sf" "M" (to_string (on_fence Modified));
        Alcotest.(check string) "nt" "W" (to_string (on_nt_write Unmodified)));
    Tu.case "only persisted is persisted" (fun () ->
        let open Pstate in
        Alcotest.(check bool) "P" true (is_persisted Persisted);
        List.iter
          (fun s -> Alcotest.(check bool) (to_string s) false (is_persisted s))
          [ Unmodified; Modified; Writeback_pending ]);
  ]

let cstate_tests =
  [
    Tu.case "eq.3 window classification" (fun () ->
        let c = Cstate.classify ~t_prelast:2 ~t_last:5 in
        Alcotest.(check string) "inside" "C" (Cstate.to_string (c ~tlast:3));
        Alcotest.(check string) "at prelast" "C" (Cstate.to_string (c ~tlast:2));
        Alcotest.(check string) "at last" "IC-uncommitted" (Cstate.to_string (c ~tlast:5));
        Alcotest.(check string) "after" "IC-uncommitted" (Cstate.to_string (c ~tlast:7));
        Alcotest.(check string) "before" "IC-stale" (Cstate.to_string (c ~tlast:1)));
    Tu.case "single commit uses open lower bound" (fun () ->
        Alcotest.(check string) "anything earlier is consistent" "C"
          (Cstate.to_string (Cstate.classify ~t_prelast:(-1) ~t_last:4 ~tlast:0)));
    Tu.case "never committed means uncommitted" (fun () ->
        Alcotest.(check string) "uncommitted" "IC-uncommitted"
          (Cstate.to_string Cstate.not_committed));
    Tu.case "figure 10 transitions" (fun () ->
        let open Cstate in
        Alcotest.(check bool) "write -> uncommitted" true (equal (on_write Consistent) Uncommitted);
        Alcotest.(check bool) "commit earlier write" true
          (equal (on_commit ~modified_before:true Uncommitted) Consistent);
        Alcotest.(check bool) "commit same-epoch write" true
          (equal (on_commit ~modified_before:false Uncommitted) Uncommitted);
        Alcotest.(check bool) "recommit consistent -> stale" true
          (equal (on_commit ~modified_before:true Consistent) Stale);
        Alcotest.(check bool) "stale stays stale" true
          (equal (on_commit ~modified_before:true Stale) Stale));
    Tu.case "fsm agrees with window classification on a random trace" (fun () ->
        (* One location m, one commit variable x.  Apply a random sequence
           of (write m | commit x) at increasing timestamps and compare the
           FSM state with the Eq. 3 classification. *)
        let rng = Xfd_util.Rng.create 99L in
        for _trial = 1 to 200 do
          let fsm = ref Cstate.Uncommitted in
          let tlast = ref (-2) and t_prelast = ref (-1) and t_last = ref (-1) in
          let commits = ref 0 in
          let written = ref false in
          for ts = 0 to 20 do
            if Xfd_util.Rng.bool rng then begin
              fsm := Cstate.on_write !fsm;
              tlast := ts;
              written := true
            end
            else begin
              fsm := Cstate.on_commit ~modified_before:(!tlast < ts) !fsm;
              t_prelast := !t_last;
              t_last := ts;
              incr commits
            end
          done;
          if !written && !commits > 0 then begin
            let expected =
              Cstate.classify
                ~t_prelast:(if !commits = 1 then -1 else !t_prelast)
                ~t_last:!t_last ~tlast:!tlast
            in
            Alcotest.(check string) "fsm = window" (Cstate.to_string expected)
              (Cstate.to_string !fsm)
          end
        done);
  ]

let shadow_tests =
  [
    Tu.case "write/flush/fence lifecycle" (fun () ->
        let s = Shadow.create () in
        Shadow.write_byte s 100 ~ts:0 ~ev:0 ~loc:l ~nt:false ~post:false;
        (match Shadow.find s 100 with
        | Some c -> Alcotest.(check string) "M" "M" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "cell missing");
        (match Shadow.flush_line s 64 ~ev:0 with
        | `Had_modified -> ()
        | _ -> Alcotest.fail "expected useful flush");
        Shadow.fence s ~ev:0;
        match Shadow.find s 100 with
        | Some c -> Alcotest.(check string) "P" "P" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "cell missing");
    Tu.case "flush classification" (fun () ->
        let s = Shadow.create () in
        Alcotest.(check bool) "untracked line is clean" true (Shadow.flush_line s 0 ~ev:0 = `Clean);
        Shadow.write_byte s 5 ~ts:0 ~ev:0 ~loc:l ~nt:false ~post:false;
        ignore (Shadow.flush_line s 0 ~ev:0);
        Alcotest.(check bool) "second flush is double" true
          (Shadow.flush_line s 0 ~ev:0 = `Waste Pstate.Double_flush);
        Shadow.fence s ~ev:0;
        Alcotest.(check bool) "flush of persisted is unnecessary" true
          (Shadow.flush_line s 0 ~ev:0 = `Waste Pstate.Unnecessary_flush));
    Tu.case "nt write goes straight to pending" (fun () ->
        let s = Shadow.create () in
        Shadow.write_byte s 7 ~ts:0 ~ev:0 ~loc:l ~nt:true ~post:false;
        Shadow.fence s ~ev:0;
        match Shadow.find s 7 with
        | Some c -> Alcotest.(check string) "P" "P" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "cell missing");
    Tu.case "overlay copy-on-write isolation" (fun () ->
        let base = Shadow.create () in
        Shadow.write_byte base 10 ~ts:1 ~ev:0 ~loc:l ~nt:false ~post:false;
        let fork = Shadow.overlay base in
        (* fork sees the parent cell *)
        (match Shadow.find fork 10 with
        | Some c -> Alcotest.(check int) "tlast" 1 c.Shadow.tlast
        | None -> Alcotest.fail "fork missed parent cell");
        Shadow.write_byte fork 10 ~ts:5 ~ev:0 ~loc:l2 ~nt:false ~post:true;
        (* parent unchanged *)
        (match Shadow.find base 10 with
        | Some c ->
          Alcotest.(check int) "parent tlast" 1 c.Shadow.tlast;
          Alcotest.(check bool) "parent not post" false c.Shadow.post_written
        | None -> Alcotest.fail "parent lost cell");
        match Shadow.find fork 10 with
        | Some c -> Alcotest.(check bool) "fork post" true c.Shadow.post_written
        | None -> Alcotest.fail "fork lost cell");
    Tu.case "overlay fence does not leak to parent" (fun () ->
        let base = Shadow.create () in
        Shadow.write_byte base 10 ~ts:1 ~ev:0 ~loc:l ~nt:false ~post:false;
        let fork = Shadow.overlay base in
        ignore (Shadow.flush_line fork 0 ~ev:0);
        Shadow.fence fork ~ev:0;
        (match Shadow.find fork 10 with
        | Some c -> Alcotest.(check string) "fork P" "P" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "missing");
        match Shadow.find base 10 with
        | Some c -> Alcotest.(check string) "parent still M" "M" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "missing");
    Tu.case "mark_alloc_raw resets and flags bytes" (fun () ->
        let s = Shadow.create () in
        Shadow.write_byte s 20 ~ts:3 ~ev:0 ~loc:l ~nt:false ~post:false;
        Shadow.mark_alloc_raw s 20 4 ~ev:0;
        (match Shadow.find s 20 with
        | Some c ->
          Alcotest.(check bool) "uninit" true c.Shadow.uninit;
          Alcotest.(check string) "U" "U" (Pstate.to_string c.Shadow.pstate)
        | None -> Alcotest.fail "missing");
        Shadow.write_byte s 20 ~ts:4 ~ev:0 ~loc:l ~nt:false ~post:false;
        match Shadow.find s 20 with
        | Some c -> Alcotest.(check bool) "write clears uninit" false c.Shadow.uninit
        | None -> Alcotest.fail "missing");
  ]

let registry_tests =
  [
    Tu.case "commit byte membership" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:8;
        Alcotest.(check bool) "inside" true (Registry.is_commit_byte r 104);
        Alcotest.(check bool) "outside" false (Registry.is_commit_byte r 108));
    Tu.case "window evolves with commit writes" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:8;
        Alcotest.(check bool) "never committed" true (Registry.window_for r 200 = Some None);
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:3 ~ev:0;
        Alcotest.(check bool) "one commit" true (Registry.window_for r 200 = Some (Some (-1, 3)));
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:7 ~ev:0;
        Alcotest.(check bool) "two commits" true (Registry.window_for r 200 = Some (Some (3, 7)));
        Alcotest.(check bool) "unrelated byte" true (Registry.window_for r 300 = None));
    Tu.case "partial overlap counts as commit write" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:8;
        Registry.register_range r ~var:100 ~addr:200 ~size:4;
        Registry.on_write r ~defer:false ~addr:96 ~size:8 ~ts:1 ~ev:0 (* spans 96..103 *);
        Alcotest.(check bool) "committed" true (Registry.window_for r 200 = Some (Some (-1, 1))));
    Tu.case "eq.2 disjointness enforced" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:16;
        Alcotest.(check bool) "same var re-register ok" true
          (try
             Registry.register_range r ~var:100 ~addr:200 ~size:16;
             true
           with _ -> false);
        match Registry.register_range r ~var:300 ~addr:208 ~size:4 with
        | () -> Alcotest.fail "expected Overlapping_commit_ranges"
        | exception Registry.Overlapping_commit_ranges (a, b) ->
          Alcotest.(check (pair int int)) "culprits" (100, 300) (a, b));
    Tu.case "clone is independent" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:8;
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:1 ~ev:0;
        let c = Registry.clone r in
        Registry.on_write c ~defer:false ~addr:100 ~size:8 ~ts:9 ~ev:0;
        Alcotest.(check bool) "original window" true (Registry.window_for r 200 = Some (Some (-1, 1)));
        Alcotest.(check bool) "clone window" true (Registry.window_for c 200 = Some (Some (1, 9))));
    Tu.case "overlap with an existing range names both culprits" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:16;
        (* A one-byte graze at either edge is as illegal as full overlap. *)
        (match Registry.register_range r ~var:300 ~addr:215 ~size:8 with
        | () -> Alcotest.fail "tail graze accepted"
        | exception Registry.Overlapping_commit_ranges (a, b) ->
          Alcotest.(check (pair int int)) "tail culprits" (100, 300) (a, b));
        match Registry.register_range r ~var:300 ~addr:192 ~size:9 with
        | () -> Alcotest.fail "head graze accepted"
        | exception Registry.Overlapping_commit_ranges (a, b) ->
          Alcotest.(check (pair int int)) "head culprits" (100, 300) (a, b));
    Tu.case "unregistering mid-run frees bytes and ranges" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:16;
        Registry.on_write r ~defer:false ~addr:100 ~size:8 ~ts:2 ~ev:0;
        Registry.unregister_var r ~var:100;
        Alcotest.(check int) "var gone" 0 (Registry.var_count r);
        Alcotest.(check bool) "commit bytes freed" false (Registry.is_commit_byte r 100);
        Alcotest.(check bool) "range bytes freed" true (Registry.window_for r 200 = None);
        (* The freed range can now belong to someone else. *)
        Registry.register_range r ~var:300 ~addr:200 ~size:16;
        Alcotest.(check bool) "re-registered fresh" true
          (Registry.window_for r 200 = Some None));
    Tu.case "unregistering drops the variable's deferred commits" (fun () ->
        let r = Registry.create () in
        Registry.register_range r ~var:100 ~addr:200 ~size:8;
        Registry.register_range r ~var:300 ~addr:300 ~size:8;
        Registry.on_write r ~defer:true ~addr:100 ~size:8 ~ts:4 ~ev:0;
        Registry.on_write r ~defer:true ~addr:300 ~size:8 ~ts:5 ~ev:0;
        Registry.unregister_var r ~var:100;
        Registry.apply_pending r;
        Alcotest.(check bool) "survivor applied" true
          (Registry.window_for r 300 = Some (Some (-1, 5)));
        Alcotest.(check bool) "victim gone" true (Registry.window_for r 200 = None));
    Tu.case "unknown variable unregisters as a no-op" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:8;
        Registry.unregister_var r ~var:999;
        Alcotest.(check int) "untouched" 1 (Registry.var_count r));
    Tu.case "zero-length registrations are inert" (fun () ->
        let r = Registry.create () in
        Registry.register_var r ~var:100 ~size:0;
        Alcotest.(check int) "variable exists" 1 (Registry.var_count r);
        Alcotest.(check bool) "no commit bytes" false (Registry.is_commit_byte r 100);
        Registry.register_range r ~var:100 ~addr:200 ~size:0;
        Alcotest.(check bool) "no range bytes" true (Registry.window_for r 200 = None);
        (* A zero-length range never conflicts, wherever it lands. *)
        Registry.register_range r ~var:300 ~addr:200 ~size:8;
        Registry.register_range r ~var:500 ~addr:204 ~size:0;
        Alcotest.(check bool) "zero-length overlay accepted" true
          (Registry.window_for r 204 = Some None));
  ]

(* Build a trace programmatically and run the backend over it. *)
let mk_trace kinds =
  let t = Trace.create () in
  List.iter (fun (kind, loc) -> ignore (Trace.append t ~kind ~loc)) kinds;
  t

let base = Xfd_mem.Addr.pool_base

let detector_tests =
  [
    Tu.case "race detected on unflushed pre-failure write" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        match Detector.bugs fork with
        | [ Report.Race r ] ->
          Alcotest.(check int) "addr" base r.Report.addr;
          Alcotest.(check int) "size" 8 r.Report.size
        | bugs -> Alcotest.failf "expected one race, got %d findings" (List.length bugs));
    Tu.case "no race once flushed and fenced" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Clwb { addr = base }, l);
              (Event.Sfence, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "flush without fence still races" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Clwb { addr = base }, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "one race" 1 (List.length (Detector.bugs fork)));
    Tu.case "reads of commit variables are benign" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Commit_var { addr = base; size = 8 }, l);
              (Event.Roi_begin, l);
              (Event.Write { addr = base; size = 8 }, l);
              (Event.Roi_end, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "benign" 0 (List.length (Detector.bugs fork)));
    Tu.case "post-failure write shields subsequent reads" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace
            [
              (Event.Roi_begin, l2);
              (Event.Write { addr = base; size = 8 }, l2);
              (Event.Read { addr = base; size = 8 }, l2);
            ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "figure 11 walkthrough: race at F1, semantic bug at F2" (fun () ->
        (* Pre-failure: write backup (0x100,16); write valid (0x110,8);
           CLWB covers both (same line); SFENCE; write arr (0x200,8).
           valid is the commit variable of the backup. *)
        let b = base in
        let pre =
          mk_trace
            [
              (Event.Commit_var { addr = b + 0x10; size = 8 }, l);
              (Event.Commit_range { var = b + 0x10; addr = b; size = 16 }, l);
              (Event.Roi_begin, l);
              (Event.Write { addr = b; size = 16 }, l);
              (Event.Write { addr = b + 0x10; size = 8 }, l);
              (Event.Clwb { addr = b }, l);
              (Event.Sfence, l);
              (Event.Write { addr = b + 0x200; size = 8 }, l);
            ]
        in
        let post_reads =
          [
            (Event.Roi_begin, l2);
            (Event.Read { addr = b + 0x10; size = 8 }, l2) (* valid: benign *);
            (Event.Read { addr = b; size = 16 }, l2) (* backup *);
          ]
        in
        let d = Detector.create () in
        (* F1: right before the CLWB (events 0..4). *)
        Detector.replay d pre ~from:0 ~upto:5;
        let f1 = Detector.fork_for_post d in
        Detector.replay f1 (mk_trace post_reads) ~from:0 ~upto:max_int;
        (match Detector.bugs f1 with
        | [ Report.Race _ ] -> ()
        | bugs -> Alcotest.failf "F1: expected race, got %d findings" (List.length bugs));
        (* F2: after the fence and the arr write (all events). *)
        Detector.replay d pre ~from:5 ~upto:(Trace.length pre);
        let f2 = Detector.fork_for_post d in
        Detector.replay f2 (mk_trace post_reads) ~from:0 ~upto:max_int;
        match Detector.bugs f2 with
        | [ Report.Semantic s ] ->
          Alcotest.(check bool) "inconsistent" true
            (not (Cstate.is_consistent s.Report.status))
        | bugs -> Alcotest.failf "F2: expected semantic bug, got %d findings" (List.length bugs));
    Tu.case "uninitialised allocation read is a race" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_alloc { addr = base; size = 64; zeroed = false }, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base + 8; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        match Detector.bugs fork with
        | [ Report.Race r ] -> Alcotest.(check bool) "uninit" true r.Report.uninit
        | bugs -> Alcotest.failf "expected uninit race, got %d" (List.length bugs));
    Tu.case "zeroed allocation read is clean" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_alloc { addr = base; size = 64; zeroed = true }, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base + 8; size = 8 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "duplicate TX_ADD is a performance bug" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_begin, l);
              (Event.Tx_add { addr = base; size = 8 }, l);
              (Event.Tx_add { addr = base; size = 8 }, l2);
              (Event.Tx_commit, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        match Detector.bugs d with
        | [ Report.Perf p ] ->
          Alcotest.(check bool) "dup" true (p.Report.waste = `Duplicate_tx_add)
        | bugs -> Alcotest.failf "expected perf bug, got %d" (List.length bugs));
    Tu.case "same range in two transactions is fine" (fun () ->
        let pre =
          mk_trace
            [
              (Event.Roi_begin, l);
              (Event.Tx_begin, l);
              (Event.Tx_add { addr = base; size = 8 }, l);
              (Event.Tx_commit, l);
              (Event.Tx_begin, l);
              (Event.Tx_add { addr = base; size = 8 }, l);
              (Event.Tx_commit, l);
            ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs d)));
    Tu.case "skip_detection suppresses read checks but applies writes" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace
            [
              (Event.Roi_begin, l2);
              (Event.Skip_detection_begin, l2);
              (Event.Read { addr = base; size = 8 }, l2);
              (Event.Skip_detection_end, l2);
              (Event.Read { addr = base; size = 8 }, l2);
            ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        (* The skipped read consumed the first-read check?  No: the checked
           set is only marked when a check actually runs, so the later read
           still races. *)
        Alcotest.(check int) "one race" 1 (List.length (Detector.bugs fork)));
    Tu.case "reads outside the RoI are not checked" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 8 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post = mk_trace [ (Event.Read { addr = base; size = 8 }, l2) ] in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        Alcotest.(check int) "clean" 0 (List.length (Detector.bugs fork)));
    Tu.case "timestamp advances per ordering point" (fun () ->
        let pre =
          mk_trace [ (Event.Sfence, l); (Event.Sfence, l); (Event.Mfence, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        Alcotest.(check int) "three ticks" 3 (Detector.timestamp d));
    Tu.case "contiguous racy bytes coalesce into one report" (fun () ->
        let pre =
          mk_trace [ (Event.Roi_begin, l); (Event.Write { addr = base; size = 32 }, l) ]
        in
        let d = Detector.create () in
        Detector.replay d pre ~from:0 ~upto:(Trace.length pre);
        let fork = Detector.fork_for_post d in
        let post =
          mk_trace [ (Event.Roi_begin, l2); (Event.Read { addr = base; size = 32 }, l2) ]
        in
        Detector.replay fork post ~from:0 ~upto:(Trace.length post);
        match Detector.bugs fork with
        | [ Report.Race r ] -> Alcotest.(check int) "whole range" 32 r.Report.size
        | bugs -> Alcotest.failf "expected one coalesced race, got %d" (List.length bugs));
  ]

let suite =
  [
    ("core.pstate", pstate_tests);
    ("core.cstate", cstate_tests);
    ("core.shadow", shadow_tests);
    ("core.registry", registry_tests);
    ("core.detector", detector_tests);
  ]
