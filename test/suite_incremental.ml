(* Equivalence of the incremental prefix-sharing engine with the
   fresh-replay oracle.

   The incremental scheduler replays the pre-failure trace once, forking a
   journaled divergence per failure point and rewinding it afterwards; the
   fresh oracle (config.engine = `Fresh, xfd_cli --oracle) rebuilds a
   detector from event zero for every point.  These suites pin the
   equivalence at three levels: per-byte shadow state and Eq. 3 windows at
   every prefix position (including while a divergence is live and after
   its rewind), whole-outcome verdict fingerprints on the evaluation
   workloads and the planted-bug variants, and a broad fuzz sweep.  A
   final group asserts the engine's resource hygiene: every device and
   every flat shadow page is returned, even when the post-failure stage
   aborts detection. *)

module Prog = Xfd_fuzz.Prog
module Gen = Xfd_fuzz.Gen
module Oracle = Xfd_fuzz.Oracle
module Rng = Xfd_util.Rng
module Engine = Xfd.Engine
module Config = Xfd.Config
module Detector = Xfd.Detector
module Shadow = Xfd.Shadow_pm
module Registry = Xfd.Commit_registry
module Report = Xfd.Report
module Pstate = Xfd.Pstate
module Ctx = Xfd_sim.Ctx
module Device = Xfd_mem.Pm_device
module Trace = Xfd_trace.Trace
module Event = Xfd_trace.Event
module Loc = Xfd_util.Loc

let gen profile seed = Gen.generate profile (Rng.create (Int64.of_int seed))
let profiles = [ Gen.Correct; Gen.Buggy; Gen.Wild ]

let incremental = Config.default
let fresh = { Config.default with Config.engine = `Fresh }

(* ---- level 1: per-byte state at every prefix position ---- *)

(* The pre-failure trace of a fuzz program, recorded without the engine. *)
let pre_trace p =
  let dev = Device.create () in
  let trace = Trace.create () in
  let ctx = Ctx.create ~stage:Ctx.Pre_failure ~dev ~trace () in
  let prog = Prog.to_program p in
  prog.Engine.setup ctx;
  (match prog.Engine.pre ctx with () -> () | exception Ctx.Detection_complete -> ());
  Device.release dev;
  trace

(* Prefix positions worth comparing: just before and just after every
   fence (pending bytes in flight vs freshly persisted), plus the full
   trace. *)
let positions trace =
  let acc = ref [ Trace.length trace ] in
  Trace.iter trace (fun ev ->
      if Event.is_fence ev.Event.kind then acc := (ev.Event.seq + 1) :: ev.Event.seq :: !acc);
  List.sort_uniq compare !acc

(* A synthetic post-failure slice: the next few pre-failure events replayed
   into the fork as if they were the recovery program.  They hit the same
   slots the prefix touched, so the divergence journal captures real
   overlaps; the registry is cloned per fork, so commit/TX framing events
   are filtered out to keep the slice a plain mutation storm.  With
   [spread], every addressed event is replayed again 256 bytes and one
   page up, on bytes the prefix never touched: the journal then captures
   untracked bytes and a new page too, and outgrows its initial
   capacity. *)
let post_slice ?(spread = false) trace ~pos ~n =
  let out = Trace.create () in
  let add loc kind = ignore (Trace.append out ~kind ~loc) in
  let shifts = if spread then [ 0; 256; 4096 ] else [ 0 ] in
  Trace.iter_range trace ~from:pos ~upto:(min (pos + n) (Trace.length trace)) (fun ev ->
      let loc = ev.Event.loc in
      let each f = List.iter (fun d -> add loc (f d)) shifts in
      match ev.Event.kind with
      | Event.Write { addr; size } -> each (fun d -> Event.Write { addr = addr + d; size })
      | Event.Nt_write { addr; size } -> each (fun d -> Event.Nt_write { addr = addr + d; size })
      | Event.Read { addr; size } -> each (fun d -> Event.Read { addr = addr + d; size })
      | Event.Clwb { addr } -> each (fun d -> Event.Clwb { addr = addr + d })
      | Event.Clflush { addr } -> each (fun d -> Event.Clflush { addr = addr + d })
      | Event.Clflushopt { addr } -> each (fun d -> Event.Clflushopt { addr = addr + d })
      | (Event.Sfence | Event.Mfence) as kind -> add loc kind
      | _ -> ());
  out

(* Everything verdict-relevant about a detector at one prefix position:
   per-byte FSM state, Eq. 3 timestamps, writer provenance, the uninit and
   post-written flags, and the commit windows over the fuzz arena. *)
let dump d =
  let b = Buffer.create 256 in
  Shadow.iter_tracked (Detector.shadow d) (fun addr (c : Shadow.cell) ->
      Buffer.add_string b
        (Printf.sprintf "%x:%s:%d:%s:%b:%b\n" addr
           (Pstate.to_string c.Shadow.pstate)
           c.Shadow.tlast (Loc.to_string c.Shadow.writer) c.Shadow.uninit
           c.Shadow.post_written));
  for slot = 0 to Prog.n_slots - 1 do
    match Registry.window_for (Detector.registry d) (Prog.slot_addr slot) with
    | None -> ()
    | Some None -> Buffer.add_string b (Printf.sprintf "w%d:open\n" slot)
    | Some (Some (a, z)) -> Buffer.add_string b (Printf.sprintf "w%d:[%d,%d]\n" slot a z)
  done;
  Buffer.contents b

(* The store reuses one divergence journal for every fork.  Forks at
   successive positions alternate between plain slices of 24 events, which
   stay inside the journal's initial capacity of 64 bytes, and spread
   slices of 400 events, which overflow it; each position forks twice,
   once with each length, so a short slice also runs on scratch a long
   one just grew. *)
let slice_lengths k = if k mod 2 = 0 then [ 24; 400 ] else [ 400; 24 ]
let journal_capacity = 64

(* Fork [inc] at its position [p] once per slice length, replay the slice
   and rewind.  [check what dump] receives the base's dump while the
   divergence is live (post-failure mutations in the journal must be
   invisible to base reads) and after the rewind.  Returns the largest
   journal, in bytes. *)
let fork_twice inc trace ~k ~p check =
  List.fold_left
    (fun largest n ->
      let fork = Detector.fork_for_post inc in
      let slice = post_slice ~spread:(n > 24) trace ~pos:p ~n in
      Detector.replay fork slice ~from:0 ~upto:(Trace.length slice);
      let journal = Shadow.tracked_bytes (Detector.shadow fork) in
      check (Printf.sprintf "live divergence, %d-event slice" n) (dump inc);
      Detector.rewind fork;
      check (Printf.sprintf "after rewind, %d-event slice" n) (dump inc);
      max largest journal)
    0 (slice_lengths k)

let state_equivalence_case profile =
  Tu.case
    (Printf.sprintf "shadow state matches the fresh oracle at every prefix (%s)"
       (Gen.profile_to_string profile))
    (fun () ->
      let largest = ref 0 in
      for seed = 0 to 11 do
        let trace = pre_trace (gen profile seed) in
        let inc = Detector.create () in
        let pos = ref 0 in
        List.iteri
          (fun k p ->
            Detector.replay inc trace ~from:!pos ~upto:p;
            pos := p;
            let oracle = Detector.create () in
            Detector.replay oracle trace ~from:0 ~upto:p;
            let expected = dump oracle in
            Detector.release oracle;
            let check what got =
              Alcotest.(check string) (Printf.sprintf "seed %d pos %d (%s)" seed p what) expected got
            in
            largest := max !largest (fork_twice inc trace ~k ~p check))
          (positions trace);
        Detector.release inc
      done;
      if !largest <= journal_capacity then
        Alcotest.failf "no fork outgrew the journal's initial capacity (largest: %d bytes)"
          !largest)

let state_tests = List.map state_equivalence_case profiles

(* The same equivalence as a random property over the whole seed space. *)
let profile_arb =
  QCheck.make
    ~print:(fun (p, s) -> Printf.sprintf "%s/%d" (Gen.profile_to_string p) s)
    QCheck.Gen.(pair (oneofl profiles) (int_bound 10_000))

let qcheck_state_prop =
  QCheck.Test.make ~count:60
    ~name:"incremental state equals the fresh oracle at every prefix" profile_arb
    (fun (profile, seed) ->
      let trace = pre_trace (gen profile seed) in
      let inc = Detector.create () in
      let pos = ref 0 in
      let ok = ref true in
      List.iteri
        (fun k p ->
          Detector.replay inc trace ~from:!pos ~upto:p;
          pos := p;
          let oracle = Detector.create () in
          Detector.replay oracle trace ~from:0 ~upto:p;
          let expected = dump oracle in
          Detector.release oracle;
          ignore (fork_twice inc trace ~k ~p (fun _ got -> if got <> expected then ok := false)))
        (positions trace);
      Detector.release inc;
      !ok)

(* ---- level 2: whole-outcome fingerprints ---- *)

let fingerprint (o : Engine.outcome) =
  ( o.Engine.failure_points,
    o.Engine.pre_events,
    o.Engine.post_events,
    List.sort compare (List.map Report.dedup_key o.Engine.unique_bugs) )

let check_fingerprints name program =
  let a = Engine.detect ~config:incremental program in
  let b = Engine.detect ~config:fresh program in
  let fa = fingerprint a and fb = fingerprint b in
  let ka, pa, qa, la = fa and kb, pb, qb, lb = fb in
  Alcotest.(check int) (name ^ ": failure points") kb ka;
  Alcotest.(check int) (name ^ ": pre events") pb pa;
  Alcotest.(check int) (name ^ ": post events") qb qa;
  Alcotest.(check (list string)) (name ^ ": bug keys") lb la

let verdict_tests =
  [
    Tu.case "workload suite verdicts match the fresh oracle" (fun () ->
        List.iter
          (fun (e : Xfd_experiments.Workload_set.entry) ->
            check_fingerprints e.name (e.make ~init:1 ~test:2))
          Xfd_experiments.Workload_set.extended);
    Tu.case "new-bug variants and controls match the fresh oracle" (fun () ->
        check_fingerprints "hashmap-atomic faithful"
          (Xfd_workloads.Hashmap_atomic.program ~size:1 ~variant:`Faithful ());
        check_fingerprints "hashmap-atomic fixed"
          (Xfd_workloads.Hashmap_atomic.program ~size:1 ~variant:`Fixed ());
        check_fingerprints "redis" (Xfd_redis.Server.program ~size:1 ());
        check_fingerprints "redis fixed" (Xfd_redis.Server.program ~size:1 ~variant:`Fixed ());
        let pc_config = Xfd_workloads.Pool_create.config in
        let a =
          Engine.detect
            ~config:{ pc_config with Config.engine = `Incremental }
            (Xfd_workloads.Pool_create.program ())
        in
        let b =
          Engine.detect
            ~config:{ pc_config with Config.engine = `Fresh }
            (Xfd_workloads.Pool_create.program ())
        in
        Alcotest.(check (list string))
          "pool-create bug keys"
          (List.sort compare (List.map Report.dedup_key b.Engine.unique_bugs))
          (List.sort compare (List.map Report.dedup_key a.Engine.unique_bugs)));
  ]

(* An unflushed write the post stage reads back: every failure point
   after it reports the same race, so each fork must check the read
   afresh (the checked set is shared scratch, cleared at every fork). *)
let stays_racy_program () =
  let base = Xfd_mem.Addr.pool_base in
  let l = Loc.of_pos __POS__ in
  {
    Engine.name = "stays-racy";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        Ctx.write_i64 ctx ~loc:l base 1L;
        for i = 1 to 3 do
          Ctx.write_i64 ctx ~loc:l (base + (64 * i)) (Int64.of_int i);
          Ctx.persist_barrier ctx ~loc:l (base + (64 * i)) 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        ignore (Ctx.read_i64 ctx ~loc:l base);
        Ctx.roi_end ctx ~loc:l);
  }

let checked_tests =
  [
    Tu.case "a race at consecutive failure points is reported at each" (fun () ->
        let per_point o =
          List.map
            (fun (r : Report.failure_report) ->
              (r.Report.failure_point, List.map Report.dedup_key r.Report.bugs))
            o.Engine.reports
        in
        let inc = per_point (Engine.detect ~config:incremental (stays_racy_program ())) in
        let oracle = per_point (Engine.detect ~config:fresh (stays_racy_program ())) in
        Alcotest.(check (list (pair int (list string)))) "per-point reports" oracle inc;
        let racy = List.filter (fun (_, keys) -> keys <> []) inc in
        if List.length racy < 2 then
          Alcotest.failf "expected the race at two or more points, got %d" (List.length racy));
  ]

(* ---- level 3: the fuzz sweep ---- *)

let qcheck_verdict_prop =
  QCheck.Test.make ~count:60 ~name:"verdict fingerprints match the fresh oracle"
    profile_arb
    (fun (profile, seed) ->
      let program = Prog.to_program (gen profile seed) in
      fingerprint (Engine.detect ~config:incremental program)
      = fingerprint (Engine.detect ~config:fresh program))

let sweep_tests =
  [
    Tu.case "500-program fuzz sweep: fingerprints match the fresh oracle" (fun () ->
        let mismatches = ref [] in
        List.iter
          (fun profile ->
            (* 167 seeds x 3 profiles = 501 programs, seeded away from the
               ranges suite_fuzz draws from. *)
            for seed = 5000 to 5166 do
              let p = gen profile seed in
              let program = Prog.to_program p in
              let a = Engine.detect ~config:incremental program in
              let b = Engine.detect ~config:fresh program in
              if fingerprint a <> fingerprint b then
                mismatches :=
                  Printf.sprintf "%s/%d" (Gen.profile_to_string profile) seed :: !mismatches
            done)
          profiles;
        Alcotest.(check (list string)) "diverging programs" [] !mismatches);
  ]

(* ---- resource hygiene: every abort path releases its devices ---- *)

let l = Loc.of_pos __POS__

(* A small program with several failure points whose post-failure stage
   trips a fatal harness error ([Assert_failure] aborts detection and
   re-raises). *)
let aborting_program () =
  let base = Xfd_mem.Addr.pool_base in
  {
    Engine.name = "aborting";
    setup =
      (fun ctx ->
        Ctx.write_i64 ctx ~loc:l base 1L;
        Ctx.persist_barrier ctx ~loc:l base 8);
    pre =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        for i = 1 to 3 do
          Ctx.write_i64 ctx ~loc:l (base + (64 * i)) (Int64.of_int i);
          Ctx.persist_barrier ctx ~loc:l (base + (64 * i)) 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post = (fun _ -> assert false);
  }

let check_released name config =
  let image0 = Xfd_mem.Image.live_bytes () in
  let shadow0 = Xfd_mem.Shadow_pages.live_bytes () in
  (match Engine.detect ~config (aborting_program ()) with
  | _ -> Alcotest.failf "%s: detection should have aborted" name
  | exception Assert_failure _ -> ());
  Alcotest.(check int) (name ^ ": pm chunk bytes released") image0 (Xfd_mem.Image.live_bytes ());
  Alcotest.(check int)
    (name ^ ": shadow page bytes released")
    shadow0
    (Xfd_mem.Shadow_pages.live_bytes ())

let release_tests =
  [
    Tu.case "aborted runs release every device and shadow page" (fun () ->
        check_released "incremental" incremental;
        check_released "fresh" fresh);
    Tu.case "successful runs release every device and shadow page" (fun () ->
        let image0 = Xfd_mem.Image.live_bytes () in
        let shadow0 = Xfd_mem.Shadow_pages.live_bytes () in
        List.iter
          (fun config ->
            ignore (Engine.detect ~config (Prog.to_program (gen Gen.Buggy 7))))
          [ incremental; fresh ];
        Alcotest.(check int) "pm chunk bytes released" image0 (Xfd_mem.Image.live_bytes ());
        Alcotest.(check int)
          "shadow page bytes released" shadow0
          (Xfd_mem.Shadow_pages.live_bytes ()));
    Tu.case "baseline runs release every device and crash image" (fun () ->
        (* The pre-failure device, the crash image and the post device of
           the single-pass baselines, also when the post stage aborts. *)
        let btree () = Xfd_workloads.Btree.program ~init_size:2 ~size:3 () in
        List.iter
          (fun (name, run) ->
            let image0 = Xfd_mem.Image.live_bytes () in
            run (btree ());
            Alcotest.(check int) (name ^ ": pm chunk bytes released") image0
              (Xfd_mem.Image.live_bytes ());
            (match run (aborting_program ()) with
            | () -> Alcotest.failf "%s: the post stage should have aborted" name
            | exception Assert_failure _ -> ());
            Alcotest.(check int) (name ^ ": released after an abort") image0
              (Xfd_mem.Image.live_bytes ()))
          [
            ("run_traced", fun p -> ignore (Engine.run_traced p));
            ("run_original", fun p -> ignore (Engine.run_original p));
            ("Pure_trace.run", fun p -> ignore (Xfd_baselines.Pure_trace.run p));
          ]);
  ]

let suite =
  [
    ("incremental.state", state_tests);
    ( "incremental.props",
      List.map QCheck_alcotest.to_alcotest [ qcheck_state_prop; qcheck_verdict_prop ] );
    ("incremental.verdicts", verdict_tests @ checked_tests);
    ("incremental.sweep", sweep_tests);
    ("incremental.release", release_tests);
  ]
