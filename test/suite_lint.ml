(* Tests for the static crash-consistency linter: one positive and one
   clean fixture per rule, the Abs lattice laws, JSON export, the
   static-vs-dynamic triage goldens on real workloads, and the guarantee
   that lint-guided scheduling never changes the dynamic verdict set. *)

module Lint = Xfd_lint.Lint
module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr
module Loc = Xfd_util.Loc
module Json = Xfd_util.Json
module Faults = Xfd_sim.Faults
module Config = Xfd.Config
module Report = Xfd.Report

(* Triage the way [xfd lint --triage] does: lint the recorded pre-failure
   trace, detect dynamically under the same configuration, classify. *)
let triage ?(config = Config.default) (p : Xfd.Engine.program) =
  let report = Lint.check_trace ~domain:config.Config.domain (Lint.pre_trace ~config p) in
  Lint.triage_of ~program:p.Xfd.Engine.name report (Xfd.Engine.detect ~config p)

let l n = Loc.make ~file:"lintfix.ml" ~line:n
let base = Addr.pool_base

let mk_trace kinds =
  let t = Trace.create () in
  List.iter (fun (kind, loc) -> ignore (Trace.append t ~kind ~loc)) kinds;
  t

let ids r = List.map (fun f -> Lint.rule_id f.Lint.rule) r.Lint.findings
let check = Lint.check_trace

let fires name id kinds =
  Tu.case (name ^ " fires") (fun () ->
      let r = check (mk_trace kinds) in
      Alcotest.(check bool)
        (Printf.sprintf "%s in %s" id (String.concat "," (ids r)))
        true
        (List.mem id (ids r)))

let silent name kinds =
  Tu.case (name ^ " clean variant is silent") (fun () ->
      let r = check (mk_trace kinds) in
      Alcotest.(check (list string)) "no findings" [] (ids r);
      Alcotest.(check bool) "clean" true (Lint.clean r))

(* Shared building blocks: a data cell one line above a flag cell so flushes
   never alias. *)
let data = base + Addr.line_size
let flag = base

let rule_tests =
  [
    (* L1: missing-flush-before-commit-store *)
    fires "missing-flush-before-commit-store" "missing-flush-before-commit-store"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Write { addr = flag; size = 8 }, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Clwb { addr = flag }, l 7);
        (Event.Sfence, l 8);
      ];
    silent "missing-flush-before-commit-store"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
        (Event.Write { addr = flag; size = 8 }, l 7);
        (Event.Clwb { addr = flag }, l 8);
        (Event.Sfence, l 9);
      ];
    (* L2: flush-without-ordering-fence *)
    fires "flush-without-ordering-fence" "flush-without-ordering-fence"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
      ];
    silent "flush-without-ordering-fence"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Sfence, l 4);
      ];
    (* L3: store-to-committed-data-in-same-epoch *)
    fires "store-to-committed-data-in-same-epoch" "store-to-committed-data-in-same-epoch"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
        (Event.Write { addr = flag; size = 8 }, l 7);
        (* same fence epoch as the commit store: recovery can pair new data
           with the old flag *)
        (Event.Write { addr = data; size = 8 }, l 8);
        (Event.Clwb { addr = flag }, l 9);
        (Event.Clwb { addr = data }, l 10);
        (Event.Sfence, l 11);
      ];
    silent "store-to-committed-data-in-same-epoch"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
        (Event.Write { addr = flag; size = 8 }, l 7);
        (Event.Clwb { addr = flag }, l 8);
        (Event.Sfence, l 9);
        (* next epoch: ordered after the commit store *)
        (Event.Write { addr = data; size = 8 }, l 10);
        (Event.Clwb { addr = data }, l 11);
        (Event.Sfence, l 12);
      ];
    (* L4: write-not-tx-added-inside-tx *)
    fires "write-not-tx-added-inside-tx" "write-not-tx-added-inside-tx"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Write { addr = data; size = 8 }, l 3);
        (Event.Tx_commit, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
      ];
    silent "write-not-tx-added-inside-tx"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Tx_add { addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Tx_commit, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Sfence, l 7);
      ];
    (* L5: unflushed-at-trace-end *)
    fires "unflushed-at-trace-end" "unflushed-at-trace-end"
      [ (Event.Roi_begin, l 1); (Event.Write { addr = data; size = 8 }, l 2) ];
    silent "unflushed-at-trace-end"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Sfence, l 4);
      ];
    (* L6: commit-var-never-persisted *)
    fires "commit-var-never-persisted" "commit-var-never-persisted"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Write { addr = flag; size = 8 }, l 3);
      ];
    silent "commit-var-never-persisted"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Write { addr = flag; size = 8 }, l 3);
        (Event.Clwb { addr = flag }, l 4);
        (Event.Sfence, l 5);
      ];
    (* L7: statically-redundant-flush *)
    fires "statically-redundant-flush" "statically-redundant-flush"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Clwb { addr = data }, l 4);
        (Event.Sfence, l 5);
      ];
    silent "statically-redundant-flush"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Sfence, l 4);
        (Event.Write { addr = data; size = 8 }, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Sfence, l 7);
      ];
    (* L8: duplicate-tx-add *)
    fires "duplicate-tx-add" "duplicate-tx-add"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Tx_add { addr = data; size = 8 }, l 3);
        (Event.Tx_add { addr = data; size = 8 }, l 4);
        (Event.Write { addr = data; size = 8 }, l 5);
        (Event.Tx_commit, l 6);
        (Event.Clwb { addr = data }, l 7);
        (Event.Sfence, l 8);
      ];
    silent "duplicate-tx-add"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Tx_add { addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Tx_commit, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Sfence, l 7);
      ];
  ]

let detail_tests =
  [
    Tu.case "rule ids are stable and invertible" (fun () ->
        List.iter
          (fun r ->
            match Lint.rule_of_id (Lint.rule_id r) with
            | Some r' -> Alcotest.(check bool) (Lint.rule_id r) true (r = r')
            | None -> Alcotest.failf "id %s does not invert" (Lint.rule_id r))
          Lint.all_rules;
        Alcotest.(check int) "eight rules" 8 (List.length Lint.all_rules);
        Alcotest.(check bool) "unknown id" true (Lint.rule_of_id "no-such-rule" = None));
    Tu.case "severities partition as documented" (fun () ->
        let sev r = Lint.severity_of r in
        Alcotest.(check bool) "L1 error" true (sev Lint.Missing_flush_before_commit_store = Lint.Error);
        Alcotest.(check bool) "L4 error" true (sev Lint.Write_not_tx_added = Lint.Error);
        Alcotest.(check bool) "L7 perf" true (sev Lint.Redundant_flush = Lint.Perf);
        Alcotest.(check bool) "L8 perf" true (sev Lint.Duplicate_tx_add = Lint.Perf));
    Tu.case "tx-writers of no-snapshot ranges are co-implicated" (fun () ->
        (* Stores into a TX_XADD range persist only through the transaction's
           atomic commit; an unlogged write in the same TX breaks exactly
           that, so the finding must name them for triage to match. *)
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Tx_begin, l 2);
                 (Event.Tx_xadd { addr = data; size = 16 }, l 3);
                 (Event.Write { addr = data; size = 8 }, l 4);
                 (Event.Write { addr = flag; size = 8 }, l 5);
                 (Event.Tx_commit, l 6);
                 (Event.Clwb { addr = data }, l 7);
                 (Event.Clwb { addr = flag }, l 8);
                 (Event.Sfence, l 9);
               ])
        in
        let f =
          List.find (fun f -> f.Lint.rule = Lint.Write_not_tx_added) r.Lint.findings
        in
        Alcotest.(check bool) "indicts the unlogged store" true (Loc.equal f.Lint.loc (l 5));
        Alcotest.(check bool) "names the xadd writer" true
          (List.exists (fun (_, w) -> Loc.equal w (l 4)) f.Lint.related));
    Tu.case "findings deduplicate by rule and location" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Write { addr = data; size = 8 }, l 2);
                 (Event.Write { addr = data + 8; size = 8 }, l 2);
               ])
        in
        Alcotest.(check (list string)) "one finding" [ "unflushed-at-trace-end" ] (ids r));
    Tu.case "report tallies match findings" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Tx_begin, l 2);
                 (Event.Tx_add { addr = data; size = 8 }, l 3);
                 (Event.Tx_add { addr = data; size = 8 }, l 4);
                 (Event.Write { addr = data; size = 8 }, l 5);
                 (Event.Write { addr = flag; size = 8 }, l 6);
                 (Event.Tx_commit, l 7);
               ])
        in
        Alcotest.(check int) "errors" 1 r.Lint.errors;
        Alcotest.(check int) "perf" 1 r.Lint.perf;
        Alcotest.(check int) "sum" (List.length r.Lint.findings)
          (r.Lint.errors + r.Lint.warnings + r.Lint.perf));
  ]

let json_tests =
  [
    Tu.case "report JSON parses back with the same shape" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Write { addr = data; size = 8 }, l 2);
                 (Event.Clwb { addr = data }, l 3);
               ])
        in
        match Json.of_string (Json.to_string (Lint.report_to_json r)) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok j -> (
          (match Json.member "findings" j with
          | Some (Json.Arr fs) ->
            Alcotest.(check int) "findings" (List.length r.Lint.findings) (List.length fs);
            List.iter
              (fun f ->
                Alcotest.(check bool) "rule id known" true
                  (match Json.member "rule" f with
                  | Some (Json.Str id) -> Lint.rule_of_id id <> None
                  | _ -> false))
              fs
          | _ -> Alcotest.fail "findings not an array");
          match Json.member "events" j with
          | Some (Json.Int n) -> Alcotest.(check int) "events" r.Lint.events n
          | _ -> Alcotest.fail "events missing"));
    Tu.case "triage JSON includes both directions" (fun () ->
        let faults () = Faults.make ~skip_tx_add:[ 0 ] () in
        let config = { Config.default with Config.faults = faults () } in
        let t = triage ~config (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        match Json.of_string (Json.to_string (Lint.triage_to_json t)) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok j ->
          List.iter
            (fun k ->
              Alcotest.(check bool) k true (Json.member k j <> None))
            [ "program"; "lint"; "dynamic"; "statics"; "anticipated"; "static_misses" ]);
  ]

(* The acceptance goldens: lint is clean on correct workloads, fires the
   expected rule on seeded bugs, and triage on the TX workloads reports no
   static misses for races whose root cause is a pre-failure ordering
   violation (a skipped TX_ADD). *)
let golden_tests =
  let correct_programs () =
    [
      ("btree", Xfd_workloads.Btree.program ~init_size:2 ~size:2 ());
      ("hashmap-tx", Xfd_workloads.Hashmap_tx.program ~size:2 ());
      ("rbtree", Xfd_workloads.Rbtree.program ~size:2 ());
      ("hashmap-atomic", Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed ());
    ]
  in
  [
    Tu.case "correct workloads lint clean" (fun () ->
        List.iter
          (fun (name, p) ->
            let r = Lint.check_prog p in
            Alcotest.(check (list string)) (name ^ " findings") [] (ids r))
          (correct_programs ()));
    Tu.case "seeded faults fire the expected rules" (fun () ->
        let expect faults program id =
          let config = { Config.default with Config.faults } in
          let r = Lint.check_prog ~config program in
          Alcotest.(check bool)
            (Printf.sprintf "%s in %s" id (String.concat "," (ids r)))
            true
            (List.mem id (ids r))
        in
        expect (Faults.make ~skip_tx_add:[ 0 ] ())
          (Xfd_workloads.Hashmap_tx.program ~size:2 ())
          "write-not-tx-added-inside-tx";
        expect (Faults.make ~dup_tx_add:[ 0 ] ())
          (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ())
          "duplicate-tx-add";
        expect (Faults.make ~skip_flush:[ 1 ] ())
          (Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed ())
          "unflushed-at-trace-end";
        expect (Faults.make ~dup_flush:[ 1 ] ())
          (Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed ())
          "statically-redundant-flush");
    Tu.case "triage: no static misses on TX-logging races" (fun () ->
        List.iter
          (fun (name, program) ->
            let config =
              { Config.default with Config.faults = Faults.make ~skip_tx_add:[ 0 ] () }
            in
            let t = triage ~config (program ()) in
            Alcotest.(check int) (name ^ " static misses") 0 t.Lint.static_misses;
            Alcotest.(check bool) (name ^ " anticipated some") true (t.Lint.anticipated >= 1))
          [
            ("hashmap-tx", fun () -> Xfd_workloads.Hashmap_tx.program ~size:3 ());
            ("btree", fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:3 ());
            ("rbtree", fun () -> Xfd_workloads.Rbtree.program ~size:3 ());
          ]);
    Tu.case "triage on a correct workload is all-quiet" (fun () ->
        let t = triage (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        Alcotest.(check int) "anticipated" 0 t.Lint.anticipated;
        Alcotest.(check int) "misses" 0 t.Lint.static_misses;
        Alcotest.(check int) "static only" 0 t.Lint.static_only;
        Alcotest.(check bool) "lint clean" true (Lint.clean t.Lint.lint));
  ]

let verdict_keys (o : Xfd.Engine.outcome) =
  List.sort compare (List.map Report.dedup_key o.Xfd.Engine.unique_bugs)

let guided_tests =
  [
    Tu.case "lint-guided detection keeps the verdict set byte-identical" (fun () ->
        List.iter
          (fun (faults, program) ->
            let config = { Config.default with Config.faults = faults () } in
            let plain = Xfd.Engine.detect ~config (program ()) in
            let _, guided = Lint.detect_guided ~config (program ()) in
            Alcotest.(check (list string)) "same verdicts" (verdict_keys plain)
              (verdict_keys guided))
          [
            ( (fun () -> Faults.make ~skip_tx_add:[ 0 ] ()),
              fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:2 () );
            ( (fun () -> Faults.make ~skip_flush:[ 1 ] ()),
              fun () -> Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed () );
            ( (fun () -> Faults.make ()),
              fun () -> Xfd_workloads.Hashmap_tx.program ~size:2 () );
          ]);
    Tu.case "priority_of scores windows by finding index" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Write { addr = data; size = 8 }, l 2);
                 (Event.Clwb { addr = data }, l 3);
                 (Event.Clwb { addr = data }, l 4);
                 (Event.Sfence, l 5);
               ])
        in
        (* The redundant flush fires at trace index 3: it falls in the second
           failure point's window [2, 5). *)
        match Lint.priority_of r [ (0, 2); (1, 5) ] with
        | [ s0; s1 ] -> Alcotest.(check bool) "second window scores higher" true (s1 > s0)
        | other -> Alcotest.failf "arity %d" (List.length other));
  ]

(* The fuzzer's metamorphic oracle M4, in miniature: correct-profile random
   programs must lint clean. *)
let fuzz_props =
  [
    QCheck.Test.make ~count:25 ~name:"correct-profile programs lint clean"
      (QCheck.make ~print:Int64.to_string QCheck.Gen.(map Int64.of_int (int_bound 1000000)))
      (fun seed ->
        let rng = Xfd_util.Rng.create seed in
        let q = Xfd_fuzz.Gen.generate Xfd_fuzz.Gen.Correct rng in
        Lint.clean (Lint.check_prog (Xfd_fuzz.Prog.to_program q)));
  ]

let suite =
  [
    ("lint.rules", rule_tests);
    ("lint.details", detail_tests);
    ("lint.json", json_tests);
    ("lint.goldens", golden_tests);
    ("lint.guided", guided_tests);
    ("lint.fuzz-oracle", List.map QCheck_alcotest.to_alcotest fuzz_props);
  ]
