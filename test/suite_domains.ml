(* Persistence-domain-parametric analysis: the differential static lint
   across ADR / eADR / CXL-GPF, the concrete shadow FSM under each model,
   the GPF barrier event, the ADR byte-identity guarantee (the parametric
   analyzer with [Adr] must be indistinguishable from the pre-parametric
   one, statically and dynamically), and the lint exit-code contract of
   both command-line binaries. *)

module D = Xfd_trace.Domain_model
module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr
module Loc = Xfd_util.Loc
module Lint = Xfd_lint.Lint
module Pstate = Xfd.Pstate
module Config = Xfd.Config
module Engine = Xfd.Engine
module Detector = Xfd.Detector
module Faults = Xfd_sim.Faults
module Job = Xfd_serve.Job

let l n = Loc.make ~file:"domfix.ml" ~line:n
let base = Addr.pool_base

let mk_trace kinds =
  let t = Trace.create () in
  List.iter (fun (kind, loc) -> ignore (Trace.append t ~kind ~loc)) kinds;
  t

let keys r = List.map Lint.finding_key r.Lint.findings
let hashmap ?(size = 2) () = Xfd_workloads.Hashmap_atomic.program ~size ~variant:`Fixed ()

let model_t = Alcotest.testable D.pp D.equal

(* ------------------------------------------------------------------ *)
(* The model type itself. *)

let model_tests =
  [
    Tu.case "to_string/of_string round-trips every model" (fun () ->
        List.iter
          (fun m ->
            Alcotest.(check (option model_t))
              (D.to_string m) (Some m)
              (D.of_string (D.to_string m)))
          D.all);
    Tu.case "of_string accepts aliases and mixed case, rejects junk" (fun () ->
        Alcotest.(check (option model_t)) "cxl_gpf" (Some D.Cxl_gpf) (D.of_string "cxl_gpf");
        Alcotest.(check (option model_t)) "gpf" (Some D.Cxl_gpf) (D.of_string "gpf");
        Alcotest.(check (option model_t)) "EADR" (Some D.Eadr) (D.of_string "EADR");
        Alcotest.(check (option model_t)) "ADR" (Some D.Adr) (D.of_string "ADR");
        Alcotest.(check (option model_t)) "surrounding whitespace is trimmed"
          (Some D.Eadr) (D.of_string " eadr ");
        List.iter
          (fun s ->
            Alcotest.(check (option model_t)) ("reject " ^ s) None (D.of_string s))
          [ ""; "adr2"; "eadr x"; "battery"; "cxl"; "adr;rm -rf" ]);
    Tu.case "all is exhaustive and duplicate-free" (fun () ->
        Alcotest.(check int) "three models" 3 (List.length D.all);
        Alcotest.(check int) "no duplicates" 3
          (List.length (List.sort_uniq compare D.all));
        (* Compiler-enforced exhaustiveness: extending [D.t] breaks this
           match before it can silently miss a model. *)
        List.iter
          (fun m ->
            let covered = match m with D.Adr | D.Eadr | D.Cxl_gpf -> true in
            Alcotest.(check bool) (D.to_string m ^ " covered") true covered;
            Alcotest.(check bool)
              (D.to_string m ^ " described")
              true
              (String.length (D.describe m) > 10))
          D.all);
  ]

(* ------------------------------------------------------------------ *)
(* Rule-id round-trip (qcheck) and severity reinterpretation. *)

let rule_arb =
  QCheck.make
    ~print:(fun r -> Lint.rule_id r)
    QCheck.Gen.(map (fun i -> List.nth Lint.all_rules i)
                  (int_bound (List.length Lint.all_rules - 1)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:200 ~name:"rule_of_id inverts rule_id" rule_arb
        (fun r -> Lint.rule_of_id (Lint.rule_id r) = Some r);
      QCheck.Test.make ~count:200 ~name:"adversarial ids never resolve"
        QCheck.(string_of_size Gen.(int_bound 40))
        (fun s ->
          match Lint.rule_of_id s with
          | None -> true
          | Some r -> Lint.rule_id r = s);
      QCheck.Test.make ~count:100 ~name:"severity_in Adr is severity_of" rule_arb
        (fun r -> Lint.severity_in D.Adr r = Lint.severity_of r);
    ]

let rule_tests =
  [
    Tu.case "rule ids are unique and all_rules is total" (fun () ->
        let ids = List.map Lint.rule_id Lint.all_rules in
        Alcotest.(check int) "unique ids" (List.length ids)
          (List.length (List.sort_uniq compare ids));
        (* Case-variants and whitespace must not resolve. *)
        List.iter
          (fun id ->
            Alcotest.(check bool) ("uppercase " ^ id) true
              (Lint.rule_of_id (String.uppercase_ascii id) = None
              || String.uppercase_ascii id = id);
            Alcotest.(check bool) ("padded " ^ id) true
              (Lint.rule_of_id (" " ^ id) = None))
          ids);
    Tu.case "eADR promotes redundant-flush to warning, nothing else moves"
      (fun () ->
        List.iter
          (fun r ->
            let adr = Lint.severity_of r in
            let eadr = Lint.severity_in D.Eadr r in
            let gpf = Lint.severity_in D.Cxl_gpf r in
            Alcotest.(check bool) (Lint.rule_id r ^ " cxl-gpf unchanged") true
              (gpf = adr);
            if r = Lint.Redundant_flush then
              Alcotest.(check bool) "redundant-flush is warning under eadr" true
                (eadr = Lint.Warning)
            else
              Alcotest.(check bool) (Lint.rule_id r ^ " eadr unchanged") true
                (eadr = adr))
          Lint.all_rules);
  ]

(* ------------------------------------------------------------------ *)
(* Transfer-function semantics: the one FSM detector and linter share. *)

(* The whole concrete transfer table, pinned: for each model and transfer,
   the images of U, M, W and P in that order. *)
let transfer_table =
  [
    ( D.Adr,
      [ ("write", "MMMM"); ("nt-write", "WWWW"); ("flush", "UWWP"); ("fence", "UMPP"); ("gpf", "UMWP") ]
    );
    ( D.Eadr,
      [ ("write", "PPPP"); ("nt-write", "PPPP"); ("flush", "UMWP"); ("fence", "UMWP"); ("gpf", "UMWP") ]
    );
    ( D.Cxl_gpf,
      [ ("write", "MMMM"); ("nt-write", "PPPP"); ("flush", "UPPP"); ("fence", "UMWP"); ("gpf", "UPPP") ]
    );
  ]

let transfers m =
  Pstate.
    [
      ("write", on_write_in m);
      ("nt-write", on_nt_write_in m);
      ("flush", on_flush_in m);
      ("fence", on_fence_in m);
      ("gpf", on_gpf_in m);
    ]

let all_states = Pstate.[ Unmodified; Modified; Writeback_pending; Persisted ]

let abs_tests =
  [
    Tu.case "transfer table: every transfer x state x model" (fun () ->
        List.iter
          (fun (m, expected) ->
            let image f = String.concat "" (List.map (fun s -> Pstate.to_string (f s)) all_states) in
            Alcotest.(check (list (pair string string)))
              (D.to_string m) expected
              (List.map (fun (name, f) -> (name, image f)) (transfers m));
            Alcotest.(check (pair bool bool))
              (D.to_string m ^ " persists at fence, at gpf")
              (m = D.Adr, m = D.Cxl_gpf)
              (Pstate.persists_at_fence m, Pstate.persists_at_gpf m);
            (* No transfer may introduce writeback-pending from another state
               outside ADR: eADR persists at store, CXL-GPF on arrival at the
               device.  This is what makes flush-without-ordering-fence
               vacuous outside ADR. *)
            if m <> D.Adr then
              List.iter
                (fun (name, f) ->
                  List.iter
                    (fun s ->
                      if s <> Pstate.Writeback_pending then
                        Alcotest.(check bool)
                          (Printf.sprintf "%s %s from %s" (D.to_string m) name
                             (Pstate.to_string s))
                          false
                          (Pstate.equal (f s) Pstate.Writeback_pending))
                    all_states)
                (transfers m))
          transfer_table;
        List.iter
          (fun s ->
            Alcotest.(check string) "state code round-trips" (Pstate.to_string s)
              (Pstate.to_string (Pstate.of_code (Pstate.code s))))
          all_states);
    Tu.case "concrete FSM agrees with the abstract one per model" (fun () ->
        List.iter
          (fun m ->
            let open Pstate in
            Alcotest.(check bool)
              (D.to_string m ^ " write durable iff eadr")
              (m = D.Eadr)
              (equal (on_write_in m Unmodified) Persisted);
            Alcotest.(check bool)
              (D.to_string m ^ " nt durable outside adr")
              (m <> D.Adr)
              (equal (on_nt_write_in m Unmodified) Persisted);
            Alcotest.(check bool)
              (D.to_string m ^ " flush of modified durable iff cxl-gpf")
              (m = D.Cxl_gpf)
              (equal (on_flush_in m Modified) Persisted);
            Alcotest.(check bool)
              (D.to_string m ^ " gpf drains writeback iff cxl-gpf")
              (m = D.Cxl_gpf)
              (equal (on_gpf_in m Writeback_pending) Persisted))
          D.all);
  ]

(* ------------------------------------------------------------------ *)
(* The GPF barrier event end to end. *)

let gpf_trace () =
  mk_trace
    [
      (Event.Roi_begin, l 1);
      (Event.Write { addr = base; size = 8 }, l 2);
      (Event.Gpf, l 3);
      (Event.Write { addr = base + Addr.line_size; size = 8 }, l 4);
      (Event.Roi_end, l 5);
    ]

let gpf_tests =
  [
    Tu.case "GPF event round-trips through the trace text format" (fun () ->
        let line = Event.to_line (Trace.get (gpf_trace ()) 2) in
        match Event.of_line line with
        | Some e -> Alcotest.(check bool) "kind survives" true (e.Event.kind = Event.Gpf)
        | None -> Alcotest.failf "GPF line did not parse: %s" line);
    Tu.case "shadow honours GPF only under cxl-gpf" (fun () ->
        let t = gpf_trace () in
        let probe domain =
          let det = Detector.create ~domain () in
          Detector.replay det t ~from:0 ~upto:(Trace.length t);
          let st addr =
            match Detector.probe det addr with
            | None -> Alcotest.fail "byte untracked"
            | Some c -> c.Xfd.Shadow_pm.pstate
          in
          let r = (st base, st (base + Addr.line_size)) in
          Detector.release det;
          r
        in
        (* A is written before the barrier, B after; neither is flushed. *)
        let a, b = probe D.Cxl_gpf in
        Alcotest.(check bool) "cxl-gpf: A persisted by the barrier" true
          (Pstate.equal a Pstate.Persisted);
        Alcotest.(check bool) "cxl-gpf: B still modified" true
          (Pstate.equal b Pstate.Modified);
        let a, b = probe D.Adr in
        Alcotest.(check bool) "adr: GPF inert, A modified" true
          (Pstate.equal a Pstate.Modified);
        Alcotest.(check bool) "adr: B modified" true (Pstate.equal b Pstate.Modified);
        let a, b = probe D.Eadr in
        Alcotest.(check bool) "eadr: A durable at store" true
          (Pstate.equal a Pstate.Persisted);
        Alcotest.(check bool) "eadr: B durable at store" true
          (Pstate.equal b Pstate.Persisted));
    Tu.case "Ctx.gpf persists the device image and emits the event" (fun () ->
        let dev, trace, ctx = Tu.make_ctx () in
        let loc = Loc.make ~file:"gpfctx.ml" ~line:1 in
        Xfd_sim.Ctx.roi_begin ctx ~loc;
        Xfd_sim.Ctx.write_i64 ctx ~loc base 7777L;
        Alcotest.(check bool) "dirty before barrier" true
          (Xfd_mem.Pm_device.dirty_bytes dev > 0);
        Xfd_sim.Ctx.gpf ctx ~loc;
        Alcotest.(check int) "no dirty bytes after barrier" 0
          (Xfd_mem.Pm_device.dirty_bytes dev);
        Alcotest.(check int) "no pending bytes after barrier" 0
          (Xfd_mem.Pm_device.pending_bytes dev);
        (* The strict crash image keeps the value: it is durable. *)
        let img = Xfd_mem.Pm_device.crash dev Xfd_mem.Pm_device.Strict in
        Tu.on_image img (fun ctx' ->
            Alcotest.(check Tu.i64) "value survives a strict crash" 7777L
              (Xfd_sim.Ctx.read_i64 ctx' ~loc base));
        let has_gpf = ref false in
        for i = 0 to Trace.length trace - 1 do
          if (Trace.get trace i).Event.kind = Event.Gpf then has_gpf := true
        done;
        Alcotest.(check bool) "trace carries the GPF event" true !has_gpf);
  ]

(* ------------------------------------------------------------------ *)
(* ADR byte-identity: the parametric analyzer under [Adr] must be
   indistinguishable from the pre-parametric one. *)

let identity_tests =
  [
    Tu.case "static: default check equals explicit ~domain:Adr" (fun () ->
        let fixtures =
          [
            gpf_trace ();
            mk_trace
              [
                (Event.Roi_begin, l 1);
                (Event.Commit_var { addr = base; size = 8 }, l 2);
                (Event.Write { addr = base + Addr.line_size; size = 8 }, l 3);
                (Event.Write { addr = base; size = 8 }, l 4);
                (Event.Clwb { addr = base }, l 5);
                (Event.Sfence, l 6);
              ];
          ]
        in
        List.iter
          (fun t ->
            let a = Lint.check_trace t and b = Lint.check_trace ~domain:D.Adr t in
            Alcotest.(check (list string)) "same keys" (keys a) (keys b);
            Alcotest.(check (list string)) "same rendering"
              (List.map (Format.asprintf "%a" Lint.pp_finding) a.Lint.findings)
              (List.map (Format.asprintf "%a" Lint.pp_finding) b.Lint.findings))
          fixtures);
    Tu.case "static: check_prog under default config equals domain Adr" (fun () ->
        let faults = Faults.make ~skip_fence:[ 1 ] () in
        let a = Lint.check_prog ~config:{ Config.default with Config.faults } (hashmap ())
        and b =
          Lint.check_prog
            ~config:{ Config.default with Config.faults; domain = D.Adr }
            (hashmap ())
        in
        Alcotest.(check (list string)) "same keys" (keys a) (keys b);
        Alcotest.(check bool) "finds the seeded bug" true (a.Lint.errors > 0));
    Tu.case "dynamic: detection fingerprint identical under explicit Adr" (fun () ->
        let faults () = Faults.make ~skip_flush:[ 1 ] () in
        let o1 =
          Engine.detect
            ~config:{ Config.default with Config.faults = faults () }
            (hashmap ())
        and o2 =
          Engine.detect
            ~config:{ Config.default with Config.faults = faults (); domain = D.Adr }
            (hashmap ())
        in
        Alcotest.(check string) "fingerprints byte-identical"
          (Job.fingerprint o1) (Job.fingerprint o2);
        let r, _, _, _ = Engine.tally o1 in
        Alcotest.(check bool) "the fixture is not vacuous (races found)" true (r > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Differential static lint: the goldens. *)

let entry_for d key =
  List.find_opt (fun e -> e.Lint.key = key) d.Lint.entries

let has_rule d rule cls =
  List.exists
    (fun e -> e.Lint.entry_rule = rule && e.Lint.classification = cls)
    d.Lint.entries

let report_of d m = List.assoc m d.Lint.reports

let diff_tests =
  [
    Tu.case "skip-fence: missing-flush error disappears outside ADR" (fun () ->
        let faults = Faults.make ~skip_fence:[ 1 ] () in
        let d =
          Lint.diff_domains (Lint.pre_trace ~config:{ Config.default with Config.faults } (hashmap ()))
        in
        Alcotest.(check (list model_t)) "models" D.all d.Lint.models;
        Alcotest.(check model_t) "baseline" D.Adr d.Lint.baseline;
        Alcotest.(check bool) "ADR sees the seeded error" true
          ((report_of d D.Adr).Lint.errors > 0);
        Alcotest.(check bool) "eADR and CXL-GPF see no errors" true
          ((report_of d D.Eadr).Lint.errors = 0
          && (report_of d D.Cxl_gpf).Lint.errors = 0);
        Alcotest.(check bool) "classified as disappearing under both" true
          (has_rule d Lint.Missing_flush_before_commit_store
             (`Disappears_in [ D.Eadr; D.Cxl_gpf ])));
    Tu.case "skip-flush: unflushed store disappears under eADR only" (fun () ->
        let faults = Faults.make ~skip_flush:[ 1 ] () in
        let d =
          Lint.diff_domains (Lint.pre_trace ~config:{ Config.default with Config.faults } (hashmap ()))
        in
        Alcotest.(check bool) "unflushed-at-trace-end disappears under eadr" true
          (has_rule d Lint.Unflushed_at_trace_end (`Disappears_in [ D.Eadr ]));
        Alcotest.(check bool) "eADR flags the remaining flushes as waste" true
          (has_rule d Lint.Redundant_flush (`Appears_in [ D.Eadr ]));
        (* Under CXL-GPF the skipped flush is still a bug: nothing drains
           the cache without an explicit writeback or barrier. *)
        Alcotest.(check bool) "cxl-gpf keeps the unflushed finding" true
          (List.exists
             (fun e ->
               e.Lint.entry_rule = Lint.Unflushed_at_trace_end
               && List.assoc D.Cxl_gpf e.Lint.by_model <> None)
             d.Lint.entries));
    Tu.case "GPF barrier splits the trace: pre-barrier stores are durable"
      (fun () ->
        let d = Lint.diff_domains (gpf_trace ()) in
        let key_a = "unflushed-at-trace-end:domfix.ml:2"
        and key_b = "unflushed-at-trace-end:domfix.ml:4" in
        (match entry_for d key_a with
        | None -> Alcotest.fail "pre-barrier store entry missing"
        | Some e ->
          (* GPF-specific classification: present under adr, gone under
             BOTH eadr (durable at store) and cxl-gpf (the barrier
             persisted it) — distinguishable from B below. *)
          Alcotest.(check bool) "A disappears under eadr AND cxl-gpf" true
            (e.Lint.classification = `Disappears_in [ D.Eadr; D.Cxl_gpf ]));
        (match entry_for d key_b with
        | None -> Alcotest.fail "post-barrier store entry missing"
        | Some e ->
          Alcotest.(check bool) "B disappears under eadr only" true
            (e.Lint.classification = `Disappears_in [ D.Eadr ]);
          Alcotest.(check bool) "B still fires under cxl-gpf" true
            (List.assoc D.Cxl_gpf e.Lint.by_model <> None));
        Alcotest.(check bool) "eadr is clean" true
          (Lint.clean (report_of d D.Eadr));
        Alcotest.(check bool) "the diff is not clean" false (Lint.diff_clean d));
    Tu.case "correct workloads: eADR adds warnings but never errors" (fun () ->
        List.iter
          (fun (name, p) ->
            let d = Lint.diff_domains (Lint.pre_trace (p ())) in
            Alcotest.(check bool) (name ^ " adr clean") true
              (Lint.clean (report_of d D.Adr));
            Alcotest.(check bool) (name ^ " cxl-gpf clean") true
              (Lint.clean (report_of d D.Cxl_gpf));
            Alcotest.(check int) (name ^ " eadr has no errors") 0
              (report_of d D.Eadr).Lint.errors;
            List.iter
              (fun e ->
                Alcotest.(check bool)
                  (name ^ " every entry appears under eadr only") true
                  (e.Lint.classification = `Appears_in [ D.Eadr ]))
              d.Lint.entries)
          [
            ("hashmap-tx", fun () -> Xfd_workloads.Hashmap_tx.program ~size:2 ());
            ("btree", fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:2 ());
            ("rbtree", fun () -> Xfd_workloads.Rbtree.program ~size:2 ());
          ]);
    Tu.case "diff JSON carries per-model reports and classifications" (fun () ->
        let faults = Faults.make ~skip_fence:[ 1 ] () in
        let d =
          Lint.diff_domains (Lint.pre_trace ~config:{ Config.default with Config.faults } (hashmap ()))
        in
        match Lint.diff_to_json d with
        | Xfd_util.Json.Obj kvs ->
          Alcotest.(check bool) "has baseline" true (List.mem_assoc "baseline" kvs);
          Alcotest.(check bool) "has entries" true (List.mem_assoc "entries" kvs);
          (match List.assoc "reports" kvs with
          | Xfd_util.Json.Obj reports ->
            List.iter
              (fun m ->
                Alcotest.(check bool) (D.to_string m ^ " report present") true
                  (List.mem_assoc (D.to_string m) reports))
              D.all
          | _ -> Alcotest.fail "reports is not an object")
        | _ -> Alcotest.fail "diff JSON is not an object");
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic detection under non-ADR models. *)

(* The setup + pre-failure trace of [p], recorded without the engine. *)
let pre_trace ?faults (p : Engine.program) =
  let dev = Xfd_mem.Pm_device.create () in
  let trace = Trace.create () in
  let ctx = Xfd_sim.Ctx.create ?faults ~stage:Xfd_sim.Ctx.Pre_failure ~dev ~trace () in
  p.Engine.setup ctx;
  (match p.Engine.pre ctx with () -> () | exception Xfd_sim.Ctx.Detection_complete -> ());
  Xfd_mem.Pm_device.release dev;
  trace

(* Wasted flushes as (location, waste kind), seen by the linter's tracker
   and by the dynamic detector replaying the same trace. *)
let track_wastes domain trace =
  let acc = ref [] in
  let tr =
    Xfd_lint.Track.create ~domain
      ~on_hit:(function
        | Xfd_lint.Track.Redundant_flush { loc; already; _ } ->
          acc := (Loc.to_string loc, already) :: !acc
        | _ -> ())
      ()
  in
  Trace.iter trace (Xfd_lint.Track.feed tr);
  Xfd_lint.Track.release tr;
  List.sort_uniq compare !acc

let named (loc, w) =
  (loc, match w with Pstate.Double_flush -> "double" | Pstate.Unnecessary_flush -> "unnecessary")

let detector_wastes domain trace =
  let det = Detector.create ~domain () in
  Detector.replay det trace ~from:0 ~upto:(Trace.length trace);
  let bugs = Detector.bugs det in
  Detector.release det;
  List.sort_uniq compare
    (List.filter_map
       (function
         | Xfd.Report.Perf { loc; waste = `Flush w; _ } -> Some (Loc.to_string loc, w)
         | _ -> None)
       bugs)

let dynamic_tests =
  [
    Tu.case "Track and Detector agree on wasted flushes" (fun () ->
        let seen = ref 0 in
        List.iter
          (fun (e : Xfd_experiments.Workload_set.entry) ->
            List.iter
              (fun faults ->
                let trace = pre_trace ?faults (e.make ~init:1 ~test:2) in
                List.iter
                  (fun m ->
                    let t = track_wastes m trace and d = detector_wastes m trace in
                    seen := !seen + List.length t;
                    Alcotest.(check (list (pair string string)))
                      (Printf.sprintf "%s %s" e.name (D.to_string m))
                      (List.map named d) (List.map named t))
                  D.all)
              [ None; Some (Faults.make ~dup_flush:[ 1 ] ()) ])
          Xfd_experiments.Workload_set.extended;
        Alcotest.(check bool) "some flush is wasted" true (!seen > 0));
    Tu.case "skip-flush race vanishes under eADR, survives under CXL-GPF"
      (fun () ->
        let run domain =
          Engine.tally
            (Engine.detect
               ~config:
                 {
                   Config.default with
                   Config.faults = Faults.make ~skip_flush:[ 1 ] ();
                   domain;
                 }
               (hashmap ()))
        in
        let r_adr, _, _, _ = run D.Adr in
        let r_eadr, _, p_eadr, _ = run D.Eadr in
        let r_gpf, _, _, _ = run D.Cxl_gpf in
        Alcotest.(check bool) "adr races" true (r_adr > 0);
        Alcotest.(check int) "eadr: data durable at store, no race" 0 r_eadr;
        Alcotest.(check bool) "eadr: the remaining flushes are pure waste" true
          (p_eadr > 0);
        Alcotest.(check int) "cxl-gpf: skipped flush still races" r_adr r_gpf);
    Tu.case "correct workload is clean under every model" (fun () ->
        List.iter
          (fun domain ->
            let r, s, _, e =
              Engine.tally
                (Engine.detect
                   ~config:{ Config.default with Config.domain = domain }
                   (hashmap ()))
            in
            Alcotest.(check int) (D.to_string domain ^ " races") 0 r;
            Alcotest.(check int) (D.to_string domain ^ " semantic") 0 s;
            Alcotest.(check int) (D.to_string domain ^ " post errors") 0 e)
          D.all);
  ]

(* ------------------------------------------------------------------ *)
(* The xfd command's exit contract: 0 = clean, 1 = findings, 2 = usage or
   I/O error; and its trace files, which lint like the workload runs they
   were recorded from. *)

let cli = Filename.concat ".." "bin/xfd_cli.exe"

let run_exit exe args =
  Sys.command (Filename.quote_command exe args ^ " >/dev/null 2>&1")

(* Exit code and stdout. *)
let run_out args =
  let out = Filename.temp_file "xfd_domains" ".out" in
  let code = Sys.command (Filename.quote_command cli ~stdout:out ~stderr:Filename.null args) in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let with_temp f =
  let file = Filename.temp_file "xfd_domains" ".trace" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file) (fun () -> f file)

let with_trace_file t f =
  with_temp (fun file ->
      Out_channel.with_open_text file (Trace.save t);
      f file)

let json_of text =
  match Xfd_util.Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e

let int_field key j =
  match Xfd_util.Json.member key j with
  | Some (Xfd_util.Json.Int n) -> n
  | _ -> Alcotest.failf "no integer %S" key

let exit_tests =
  [
    Tu.case "xfd_cli lint: 0 clean / 1 findings / 2 usage" (fun () ->
        Alcotest.(check int) "clean workload exits 0" 0
          (run_exit cli [ "lint"; "-w"; "hashmap-tx" ]);
        Alcotest.(check int) "names ignore punctuation, as in run" 0
          (run_exit cli [ "lint"; "-w"; "btree"; "--init"; "2"; "--test"; "3" ]);
        Alcotest.(check int) "seeded findings exit 1" 1
          (run_exit cli [ "lint"; "-w"; "hashmap-atomic"; "--patch"; "skip-fence=1" ]);
        Alcotest.(check int) "meeting an expectation exits 0" 0
          (run_exit cli
             [
               "lint"; "-w"; "hashmap-atomic"; "--patch"; "skip-fence=1";
               "--expect"; "missing-flush-before-commit-store";
             ]);
        Alcotest.(check int) "unknown domain exits 2" 2
          (run_exit cli [ "lint"; "-w"; "hashmap-tx"; "--domain"; "bogus" ]);
        Alcotest.(check int) "unknown workload exits 2" 2
          (run_exit cli [ "lint"; "-w"; "no-such-workload" ]);
        Alcotest.(check int) "unparseable patch exits 2" 2
          (run_exit cli [ "lint"; "-w"; "hashmap-tx"; "--patch"; "frobnicate=Q" ]);
        Alcotest.(check int) "no input exits 2" 2 (run_exit cli [ "lint" ]));
    Tu.case "xfd_cli lint --domain changes the verdict, same exit contract"
      (fun () ->
        Alcotest.(check int) "skip-fence error under adr exits 1" 1
          (run_exit cli
             [ "lint"; "-w"; "hashmap-atomic"; "--patch"; "skip-fence=1";
               "--domain"; "adr" ]);
        Alcotest.(check int) "same program clean under cxl-gpf exits 0" 0
          (run_exit cli
             [ "lint"; "-w"; "hashmap-atomic"; "--patch"; "skip-fence=1";
               "--domain"; "cxl-gpf" ]);
        Alcotest.(check int) "--diff-domains exits on the baseline verdict" 1
          (run_exit cli
             [ "lint"; "-w"; "hashmap-atomic"; "--patch"; "skip-fence=1";
               "--diff-domains"; "--json" ]));
    Tu.case "xfd lint --trace: 0 clean / 1 findings / 2 usage-or-IO" (fun () ->
        with_trace_file (gpf_trace ()) (fun file ->
            Alcotest.(check int) "findings exit 1" 1 (run_exit cli [ "lint"; "--trace"; file ]);
            Alcotest.(check int) "clean under eadr exits 0" 0
              (run_exit cli [ "lint"; "--trace"; file; "--domain"; "eadr" ]);
            Alcotest.(check int) "diff over a dirty trace exits 1" 1
              (run_exit cli [ "lint"; "--trace"; file; "--diff-domains" ]);
            Alcotest.(check int) "unknown domain exits 2" 2
              (run_exit cli [ "lint"; "--trace"; file; "--domain"; "nope" ]);
            List.iter
              (fun extra ->
                Alcotest.(check int) (String.concat " " extra ^ " with --trace exits 2") 2
                  (run_exit cli ([ "lint"; "--trace"; file ] @ extra)))
              [
                [ "-w"; "btree" ]; [ "--init"; "0" ]; [ "--test"; "1" ];
                [ "--patch"; "skip-fence=1" ]; [ "--triage" ]; [ "--triage-out"; "t.json" ];
              ]);
        Alcotest.(check int) "unreadable trace exits 2" 2
          (run_exit cli [ "lint"; "--trace"; "/nonexistent-xfd-domains.trace" ]);
        with_temp (fun file ->
            Out_channel.with_open_text file (fun oc ->
                output_string oc "{\"type\": \"xfd_report\", \"schema_version\": 1}\n");
            Alcotest.(check int) "a file that is not a trace exits 2" 2
              (run_exit cli [ "lint"; "--trace"; file ]);
            Alcotest.(check int) "so does trace check" 2
              (run_exit cli [ "trace"; "check"; "--pre"; file; "--post"; file ]);
            Alcotest.(check int) "and trace stats" 2 (run_exit cli [ "trace"; "stats"; file ]));
        let empty = mk_trace [ (Event.Roi_begin, l 1); (Event.Roi_end, l 2) ] in
        with_trace_file empty (fun file ->
            Alcotest.(check int) "clean trace exits 0" 0
              (run_exit cli [ "lint"; "--trace"; file ])));
    Tu.case "xfd run: an unknown workload or a bad patch exits 2" (fun () ->
        Alcotest.(check int) "unknown workload" 2 (run_exit cli [ "run"; "-w"; "nosuch" ]);
        Alcotest.(check int) "bad patch" 2
          (run_exit cli [ "run"; "-w"; "btree"; "--patch"; "bogus=1" ]));
    Tu.case "lint --trace of a recorded trace = lint -w, under every model" (fun () ->
        List.iter
          (fun w ->
            with_temp (fun file ->
                Alcotest.(check int) (w ^ " recorded") 0
                  (run_exit cli [ "trace"; "record"; "-w"; w; "--test"; "3"; "--pre"; file ]);
                List.iter
                  (fun d ->
                    let d = D.to_string d in
                    let of_file = run_out [ "lint"; "--trace"; file; "--domain"; d; "--json" ] in
                    let of_run =
                      run_out [ "lint"; "-w"; w; "--test"; "3"; "--domain"; d; "--json" ]
                    in
                    Alcotest.(check (pair int string)) (w ^ " under " ^ d) of_run of_file)
                  D.all))
          [ "b-tree"; "c-tree"; "rb-tree"; "hashmap-tx"; "hashmap-atomic" ]);
    Tu.case "trace record, stats and check agree" (fun () ->
        with_temp (fun pre ->
            with_temp (fun post ->
                let code, out =
                  run_out
                    [ "trace"; "record"; "-w"; "btree"; "--test"; "3"; "--pre"; pre; "--post"; post ]
                in
                Alcotest.(check int) "record exits 0" 0 code;
                let recorded = Scanf.sscanf out "recorded %d" Fun.id in
                let code, stats = run_out [ "trace"; "stats"; pre; "--json" ] in
                Alcotest.(check int) "stats exits 0" 0 code;
                Alcotest.(check int) "stats counts every recorded event" recorded
                  (int_field "events" (json_of stats));
                let code, out = run_out [ "trace"; "check"; "--pre"; pre; "--post"; post ] in
                let findings = Scanf.sscanf out "offline check (%_d pre + %_d post events): %d" Fun.id in
                Alcotest.(check int) "a correct B-Tree checks clean" 0 findings;
                Alcotest.(check int) "clean check exits 0" 0 code));
        (* A store never written back, read after the failure: a race. *)
        let stranded =
          mk_trace
            [
              (Event.Roi_begin, l 8);
              (Event.Read { addr = base + Addr.line_size; size = 8 }, l 9);
              (Event.Roi_end, l 10);
            ]
        in
        with_trace_file (gpf_trace ()) (fun pre ->
            with_trace_file stranded (fun post ->
                let code, out = run_out [ "trace"; "check"; "--pre"; pre; "--post"; post ] in
                let findings = Scanf.sscanf out "offline check (%_d pre + %_d post events): %d" Fun.id in
                Alcotest.(check bool) "a stranded store is found" true (findings > 0);
                Alcotest.(check int) "findings exit 1" 1 code)));
  ]

let suite =
  [
    ("domains.model", model_tests);
    ("domains.rules", qcheck_tests @ rule_tests);
    ("domains.abs", abs_tests);
    ("domains.gpf", gpf_tests);
    ("domains.identity", identity_tests);
    ("domains.diff", diff_tests);
    ("domains.dynamic", dynamic_tests);
    ("domains.exit", exit_tests);
  ]
