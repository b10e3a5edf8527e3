(* Engine-level behaviour: failure-point placement and elision, the
   terminal failure point, crash modes, the ablation strategy, and outcome
   accounting. *)

module Ctx = Xfd_sim.Ctx
module Engine = Xfd.Engine
module Config = Xfd.Config

let l = Tu.loc __POS__
let base = Xfd_mem.Addr.pool_base

(* A tiny crash-consistent low-level program: an append-only log of slots
   guarded by a persisted element counter (the commit variable).  The
   post-failure stage reads the counter (benign) and only the slots it
   covers — each of which was persisted strictly before the counter. *)
let counter_program ?(n = 4) () =
  let count_addr = base and slot_addr i = base + (64 * (i + 1)) in
  {
    Engine.name = "counter";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.add_commit_var ctx ~loc:l count_addr 8;
        Ctx.roi_begin ctx ~loc:l;
        for i = 0 to n - 1 do
          Ctx.write_i64 ctx ~loc:l (slot_addr i) (Int64.of_int (100 + i));
          Ctx.persist_barrier ctx ~loc:l (slot_addr i) 8;
          Ctx.write_i64 ctx ~loc:l count_addr (Int64.of_int (i + 1));
          Ctx.persist_barrier ctx ~loc:l count_addr 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post =
      (fun ctx ->
        Ctx.add_commit_var ctx ~loc:l count_addr 8;
        Ctx.roi_begin ctx ~loc:l;
        let valid = Int64.to_int (Ctx.read_i64 ctx ~loc:l count_addr) in
        for i = 0 to valid - 1 do
          ignore (Ctx.read_i64 ctx ~loc:l (slot_addr i))
        done;
        Ctx.roi_end ctx ~loc:l);
  }

(* One 8-byte value that the persistence domain makes durable before the
   fence: under eADR a plain store is durable when it is stored, under
   CXL-GPF a flushed line is durable when it reaches the device.  The post
   stage checks that the value survived. *)
let durable_before_fence_program ~flush =
  {
    Engine.name = "durable-before-fence";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        Ctx.write_i64 ctx ~loc:l base 42L;
        if flush then Ctx.clwb ctx ~loc:l base;
        Ctx.sfence ctx ~loc:l;
        Ctx.roi_end ctx ~loc:l);
    post =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        Ctx.check ctx ~loc:l (Ctx.read_i64 ctx ~loc:l base = 42L) "the value survived";
        Ctx.roi_end ctx ~loc:l);
  }

let tests =
  [
    Tu.case "one failure point per ordering point plus terminal" (fun () ->
        let o = Tu.detect (counter_program ~n:4 ()) in
        (* 8 barriers -> 8 failure points before them, plus the terminal
           point for the program-completed state. *)
        Alcotest.(check int) "count" 9 o.Engine.failure_points;
        Tu.check_clean "correct program" o);
    Tu.case "terminal failure point can be disabled" (fun () ->
        let config = { Config.default with inject_terminal_fp = false } in
        let o = Tu.detect ~config (counter_program ~n:4 ()) in
        Alcotest.(check int) "count" 8 o.Engine.failure_points);
    Tu.case "empty ordering points are elided" (fun () ->
        let program =
          {
            (counter_program ~n:1 ()) with
            Engine.pre =
              (fun ctx ->
                Ctx.roi_begin ctx ~loc:l;
                Ctx.write_i64 ctx ~loc:l base 1L;
                Ctx.persist_barrier ctx ~loc:l base 8;
                (* Three fences with no PM update in between. *)
                Ctx.sfence ctx ~loc:l;
                Ctx.sfence ctx ~loc:l;
                Ctx.sfence ctx ~loc:l;
                Ctx.roi_end ctx ~loc:l);
          }
        in
        let o = Tu.detect program in
        (* Only the barrier's failure point: the empty fences add update_ops
           through the fence itself, so at most one more, never three. *)
        Alcotest.(check bool) "elision works" true (o.Engine.failure_points <= 3));
    Tu.case "max_failure_points caps injection" (fun () ->
        let config = { Config.default with max_failure_points = 2; inject_terminal_fp = false } in
        let o = Tu.detect ~config (counter_program ~n:10 ()) in
        Alcotest.(check int) "capped" 2 o.Engine.failure_points);
    Tu.case "every_update ablation injects strictly more failure points" (fun () ->
        let baseline = Tu.detect (counter_program ~n:6 ()) in
        let config = { Config.default with strategy = Ctx.Every_update } in
        let naive = Tu.detect ~config (counter_program ~n:6 ()) in
        Alcotest.(check bool) "more points" true
          (naive.Engine.failure_points > baseline.Engine.failure_points);
        (* And finds nothing extra on a correct program. *)
        Tu.check_clean "naive on correct" naive);
    Tu.case "ablation finds the same bug on a buggy program" (fun () ->
        let p = Xfd_workloads.Array_update.program ~size:1 () in
        let r1, s1, _, _ = Tu.tally_of p in
        let config = { Config.default with strategy = Ctx.Every_update } in
        let r2, s2, _, _ = Tu.tally_of ~config (Xfd_workloads.Array_update.program ~size:1 ()) in
        Alcotest.(check bool) "race found both ways" true (r1 >= 1 && r2 >= 1);
        Alcotest.(check bool) "semantic found both ways" true (s1 >= 1 && s2 >= 1));
    Tu.case "strict crash mode agrees on the figure 2 verdicts" (fun () ->
        let config = { Config.default with crash_mode = `Strict } in
        let races, semantics, _, _ =
          Tu.tally_of ~config (Xfd_workloads.Array_update.program ~size:1 ())
        in
        Alcotest.(check bool) "race" true (races >= 1);
        Alcotest.(check bool) "semantic" true (semantics >= 1));
    Tu.case "unique bugs deduplicate across failure points" (fun () ->
        let o = Tu.detect (Xfd_workloads.Linkedlist.program ~size:3 ()) in
        (* The same length race occurs at many failure points but is one
           programming error. *)
        let races = List.filter Xfd.Report.is_race o.Engine.unique_bugs in
        Alcotest.(check bool) "few unique races" true (List.length races <= 3);
        let reported_at =
          List.length
            (List.filter (fun r -> List.exists Xfd.Report.is_race r.Xfd.Report.bugs) o.Engine.reports)
        in
        Alcotest.(check bool) "reported at several points" true (reported_at > List.length races));
    Tu.case "outcome accounting is sane" (fun () ->
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        Alcotest.(check bool) "pre events" true (o.Engine.pre_events > 50);
        Alcotest.(check bool) "post events" true (o.Engine.post_events > o.Engine.pre_events / 10);
        Alcotest.(check bool) "reports per failure point" true
          (List.length o.Engine.reports = o.Engine.failure_points);
        let pre, post = Engine.wall_breakdown o in
        Alcotest.(check bool) "times nonnegative" true (pre >= 0.0 && post >= 0.0);
        Alcotest.(check bool) "total is the sum" true
          (abs_float (Engine.total_wall o -. (pre +. post)) < 1e-9));
    Tu.case "run_traced and run_original complete" (fun () ->
        let p = Xfd_workloads.Btree.program ~init_size:2 ~size:2 () in
        Alcotest.(check bool) "traced" true (Engine.run_traced p >= 0.0);
        Alcotest.(check bool) "original" true (Engine.run_original p >= 0.0));
    Tu.case "detection is deterministic" (fun () ->
        let run () =
          let o = Tu.detect (Xfd_workloads.Array_update.program ~size:2 ()) in
          ( o.Engine.failure_points,
            List.map Xfd.Report.dedup_key o.Engine.unique_bugs,
            o.Engine.pre_events )
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "identical outcomes" true (a = b));
    Tu.case "seeded faults do not corrupt the trace determinism" (fun () ->
        let config =
          { Config.default with faults = Xfd_sim.Faults.make ~skip_tx_add:[ 0 ] () }
        in
        let run () =
          let o = Tu.detect ~config (Xfd_workloads.Btree.program ~size:2 ()) in
          List.map Xfd.Report.dedup_key o.Engine.unique_bugs
        in
        Alcotest.(check bool) "same bugs twice" true (run () = run ()));
  ]

(* A post stage that dies with a harness-fatal exception: the engine must
   re-raise it — unchanged — whatever the domain-pool size. *)
let asserting_post_program () =
  {
    Engine.name = "asserting-post";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        for i = 0 to 3 do
          Ctx.write_i64 ctx ~loc:l (base + (64 * i)) 1L;
          Ctx.persist_barrier ctx ~loc:l (base + (64 * i)) 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post = (fun _ -> assert false);
  }

let config_tests =
  [
    Tu.case "validate rejects a non-positive failure-point cap" (fun () ->
        List.iter
          (fun cap ->
            match Config.validate { Config.default with max_failure_points = cap } with
            | () -> Alcotest.failf "cap %d accepted" cap
            | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "cap %d message names the field" cap)
                true
                (String.length msg > 0
                && String.sub msg 0 (String.length "Config.max_failure_points")
                   = "Config.max_failure_points"))
          [ 0; -1; min_int ]);
    Tu.case "validate rejects a non-positive pool size" (fun () ->
        match Config.validate { Config.default with post_jobs = 0 } with
        | () -> Alcotest.fail "post_jobs 0 accepted"
        | exception Invalid_argument _ -> ());
    Tu.case "detect refuses an invalid configuration up front" (fun () ->
        let config = { Config.default with max_failure_points = 0 } in
        match Tu.detect ~config (counter_program ~n:2 ()) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Tu.case "strict crash images are refused outside the ADR domain" (fun () ->
        (* A Strict image keeps only bytes made durable by flush + fence,
           which is the ADR contract: under eADR or CXL-GPF it would drop
           bytes the model calls durable and report a false post-failure
           error.  Full images stay clean; Strict is refused up front. *)
        List.iter
          (fun (domain, flush) ->
            let name = Xfd_trace.Domain_model.to_string domain in
            let program = durable_before_fence_program ~flush in
            let config = { Config.default with domain } in
            Tu.check_clean (name ^ " full") (Tu.detect ~config program);
            match Tu.detect ~config:{ config with crash_mode = `Strict } program with
            | _ -> Alcotest.failf "%s: Strict accepted" name
            | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (name ^ ": message names the field") true
                (String.starts_with ~prefix:"Config.crash_mode" msg))
          [ (Xfd_trace.Domain_model.Eadr, false); (Xfd_trace.Domain_model.Cxl_gpf, true) ];
        Config.validate { Config.default with crash_mode = `Strict });
    Tu.case "cap boundary: exact, one-less and default verdicts agree" (fun () ->
        (* The terminal point deliberately bypasses the cap (tested below),
           so boundary precision is asserted with it disabled. *)
        let base_cfg = { Config.default with inject_terminal_fp = false } in
        let keys config =
          let o = Tu.detect ~config (counter_program ~n:4 ()) in
          (o.Engine.failure_points, List.map Xfd.Report.dedup_key o.Engine.unique_bugs)
        in
        let fired, full_keys = keys base_cfg in
        Alcotest.(check bool) "uncapped by default" true
          (fired < base_cfg.Config.max_failure_points);
        (* A cap equal to the natural count changes nothing... *)
        let fired_eq, keys_eq = keys { base_cfg with max_failure_points = fired } in
        Alcotest.(check int) "exact cap fires the same points" fired fired_eq;
        Alcotest.(check (list string)) "exact cap same verdicts" full_keys keys_eq;
        (* ...a cap of one less elides exactly the last point... *)
        let fired_lt, _ = keys { base_cfg with max_failure_points = fired - 1 } in
        Alcotest.(check int) "one-less cap" (fired - 1) fired_lt;
        (* ...and cap 1 still runs one post stage on a clean program. *)
        let fired_one, keys_one = keys { base_cfg with max_failure_points = 1 } in
        Alcotest.(check int) "unit cap" 1 fired_one;
        Alcotest.(check (list string)) "unit cap stays clean" [] keys_one);
    Tu.case "terminal failure point bypasses the cap" (fun () ->
        let config = { Config.default with max_failure_points = 2 } in
        let o = Tu.detect ~config (counter_program ~n:10 ()) in
        (* Two capped ordering points plus the terminal one. *)
        Alcotest.(check int) "cap + terminal" 3 o.Engine.failure_points);
  ]

let worker_exception_tests =
  [
    Tu.case "worker exceptions surface at every pool size" (fun () ->
        List.iter
          (fun jobs ->
            let config = { Config.default with post_jobs = jobs } in
            match Tu.detect ~config (asserting_post_program ()) with
            | _ -> Alcotest.failf "post_jobs=%d swallowed the assert" jobs
            | exception Assert_failure _ -> ())
          [ 1; 2; 4 ]);
    Tu.case "non-fatal post exceptions stay bug reports at every pool size" (fun () ->
        let failing_post_program () =
          {
            (asserting_post_program ()) with
            Engine.name = "failing-post";
            post = (fun _ -> failwith "recovery invariant violated");
          }
        in
        let run jobs =
          let config = { Config.default with post_jobs = jobs } in
          let o = Tu.detect ~config (failing_post_program ()) in
          List.sort_uniq String.compare
            (List.map Xfd.Report.dedup_key o.Engine.unique_bugs)
        in
        let seq = run 1 in
        Alcotest.(check bool) "reported as post-error" true
          (List.exists (fun k -> String.length k >= 10 && String.sub k 0 10 = "post-error") seq);
        List.iter
          (fun jobs ->
            Alcotest.(check (list string))
              (Printf.sprintf "post_jobs=%d matches sequential" jobs)
              seq (run jobs))
          [ 2; 4 ]);
  ]

(* ---- the streamed post path ---- *)

(* [program] whose [k]-th post run (counting from 1) fails an assertion;
   [calls] counts the post runs started. *)
let fatal_at k program =
  let calls = ref 0 in
  ( {
      program with
      Engine.post =
        (fun ctx ->
          incr calls;
          if !calls = k then assert false;
          program.Engine.post ctx);
    },
    calls )

let named name spans = List.filter (fun r -> String.equal r.Xfd_obs.Obs.Span.name name) spans

(* The failure points of [o]'s post_run spans, sorted. *)
let post_run_points (o : Engine.outcome) =
  List.filter_map
    (fun r ->
      match List.assoc_opt "failure_point" r.Xfd_obs.Obs.Span.meta with
      | Some (Xfd_util.Json.Int i) -> Some i
      | _ -> None)
    (named "post_run" o.Engine.spans)
  |> List.sort compare

let stream_tests =
  [
    Tu.case "a fatal post run mid-stream releases every buffer, within the free-list bounds"
      (fun () ->
        let btree () = Xfd_workloads.Btree.program ~init_size:2 ~size:3 () in
        let clean = Tu.detect (btree ()) in
        let n = clean.Engine.failure_points in
        let k = n / 2 in
        Alcotest.(check bool) "a middle point" true (k > 1 && k < n);
        let image0 = Xfd_mem.Image.live_bytes () in
        let shadow0 = Xfd_mem.Shadow_pages.live_bytes () in
        let program, calls = fatal_at k (btree ()) in
        (* An aborted detect returns no outcome: count its post_replay
           spans as they stream past a sink. *)
        let replays = ref 0 in
        let sink =
          Xfd_obs.Obs.Sink.of_fn ~close:ignore ~write:(fun j ->
              if Xfd_util.Json.member "type" j = Some (Xfd_util.Json.Str "span")
                 && Xfd_util.Json.member "name" j = Some (Xfd_util.Json.Str "post_replay")
              then incr replays)
        in
        Xfd_obs.Obs.Sink.install sink;
        Fun.protect
          ~finally:(fun () -> Xfd_obs.Obs.Sink.uninstall sink)
          (fun () ->
            match Tu.detect program with
            | _ -> Alcotest.fail "the assertion was swallowed"
            | exception Assert_failure _ -> ());
        (* Streamed: each point's post run comes when the replay reaches
           it, so the points before [k] were replayed and none after it
           ran. *)
        Alcotest.(check int) "post runs started" k !calls;
        Alcotest.(check int) "points replayed before the abort" (k - 1) !replays;
        Alcotest.(check int) "pm chunk bytes released" image0 (Xfd_mem.Image.live_bytes ());
        Alcotest.(check int) "shadow page bytes released" shadow0
          (Xfd_mem.Shadow_pages.live_bytes ());
        let within name n bound =
          if n > bound then Alcotest.failf "%s: %d pooled, bound %d" name n bound
        in
        within "chunks" (Xfd_mem.Image.free_chunks ()) Xfd_mem.Image.free_bound;
        within "shadow pages" (Xfd_mem.Shadow_pages.free_pages ()) Xfd_mem.Shadow_pages.free_bound;
        (* The pooled buffers serve the next detect unchanged. *)
        Alcotest.(check string) "a detect after the abort" (Xfd_serve.Job.fingerprint clean)
          (Xfd_serve.Job.fingerprint (Tu.detect (btree ()))));
    Tu.case "sequential, post_jobs=3 runs agree, one post_run per point" (fun () ->
        List.iter
          (fun program ->
            let seq = Tu.detect (program ()) in
            let batch = Tu.detect ~config:{ Config.default with post_jobs = 3 } (program ()) in
            let every = List.init seq.Engine.failure_points Fun.id in
            List.iter
              (fun (name, (o : Engine.outcome)) ->
                Alcotest.(check string) (name ^ ": fingerprint") (Xfd_serve.Job.fingerprint seq)
                  (Xfd_serve.Job.fingerprint o);
                Alcotest.(check (list int)) (name ^ ": one post_run per point") every
                  (post_run_points o);
                (* The batch hands its post_exec scope to the pool
                   helpers, so their post_run spans are its children. *)
                let post_exec_ids =
                  List.map (fun r -> Some r.Xfd_obs.Obs.Span.id) (named "post_exec" o.Engine.spans)
                in
                List.iter
                  (fun r ->
                    Alcotest.(check bool) (name ^ ": post_run under post_exec") true
                      (List.mem r.Xfd_obs.Obs.Span.parent post_exec_ids))
                  (named "post_run" o.Engine.spans))
              [ ("sequential", seq); ("post_jobs=3", batch) ];
            (* A post_exec span per point on the streamed path, one around
               the batch otherwise; either way they total the post runs. *)
            let post_exec (o : Engine.outcome) = List.length (named "post_exec" o.Engine.spans) in
            Alcotest.(check int) "streamed post_exec spans" seq.Engine.failure_points (post_exec seq);
            Alcotest.(check int) "batch post_exec spans" 1 (post_exec batch))
          [
            (fun () -> Xfd_workloads.Array_update.program ~size:2 ());
            (fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:3 ());
          ]);
    Tu.case "forensic chains are the same whether post traces stream or batch" (fun () ->
        let config = { Config.default with forensics = true } in
        let chains (o : Engine.outcome) =
          List.map (fun b -> Xfd_util.Json.to_string (Xfd.Report.bug_to_json b)) o.Engine.unique_bugs
        in
        let program () = Xfd_workloads.Array_update.program ~size:2 () in
        let seq = Tu.detect ~config (program ()) in
        let batch = Tu.detect ~config:{ config with post_jobs = 3 } (program ()) in
        Alcotest.(check bool) "chains were built" true
          (List.exists (fun b -> Xfd.Report.provenance b <> None) seq.Engine.unique_bugs);
        Alcotest.(check (list string)) "identical chains" (chains batch) (chains seq));
  ]

(* ---- the process-wide helper pool ---- *)

module Pool = Xfd_util.Domain_pool

(* Each failure point of [epoch_program ~n] sees its own value at [base]:
   point k (before the k-th fence) sees k + 1.  Its post run reads it. *)
let epoch_program ~n ~post =
  {
    Engine.name = "epochs";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        for j = 1 to n do
          Ctx.write_i64 ctx ~loc:l base (Int64.of_int j);
          Ctx.persist_barrier ctx ~loc:l base 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post = (fun ctx -> post (Int64.to_int (Ctx.read_i64 ctx ~loc:l base)));
  }

let seeded_programs () =
  List.concat_map
    (fun (e : Xfd_experiments.Workload_set.entry) ->
      List.map
        (fun faults () ->
          ({ Config.default with faults = faults () }, e.Xfd_experiments.Workload_set.make ~init:2 ~test:3))
        [ (fun () -> Xfd_sim.Faults.none); (fun () -> Xfd_sim.Faults.make ~skip_flush:[ 1 ] ()) ])
    Xfd_experiments.Workload_set.all

let keys (o : Engine.outcome) = List.map Xfd.Report.dedup_key o.Engine.unique_bugs

let pool_tests =
  [
    Tu.case "200 detects at post_jobs=3 share at most cap helpers, and the major heap stays flat"
      (fun () ->
        let config = { Config.default with post_jobs = 3 } in
        let detect () = ignore (Tu.detect ~config (Xfd_workloads.Btree.program ~init_size:2 ~size:3 ())) in
        for _ = 1 to 5 do detect () done;
        Gc.full_major ();
        let heap0 = (Gc.quick_stat ()).Gc.heap_words in
        for _ = 1 to 200 do detect () done;
        Gc.full_major ();
        let grown = (Gc.quick_stat ()).Gc.heap_words - heap0 in
        let domains = Pool.domains () in
        Alcotest.(check bool)
          (Printf.sprintf "%d helpers, cap %d" domains Pool.cap)
          true
          (domains <= Pool.cap && (Pool.cap = 0 || domains >= 1));
        Alcotest.(check (option (float 0.))) "engine.pool_domains" (Some (float_of_int domains))
          (Xfd_obs.Obs.gauge_value "engine.pool_domains");
        (* Spawning and joining two domains per detect grew the heap by
           0.7M-1.0M words over these 200 detects, and on with every
           detect; with the pool it grows by 0.19M-0.27M and levels off. *)
        if grown > 400_000 then Alcotest.failf "major heap grew %d words over 200 detects" grown);
    Tu.case "post_jobs 2, 3 and 8 give the sequential keys and fingerprints on every workload"
      (fun () ->
        List.iter
          (fun make ->
            let config, program = make () in
            let seq = Tu.detect ~config program in
            List.iter
              (fun jobs ->
                let config, program = make () in
                let o = Tu.detect ~config:{ config with post_jobs = jobs } program in
                let name = Printf.sprintf "%s, post_jobs=%d" o.Engine.program jobs in
                Alcotest.(check (list string)) (name ^ ": keys") (keys seq) (keys o);
                Alcotest.(check string) (name ^ ": fingerprint") (Xfd_serve.Job.fingerprint seq)
                  (Xfd_serve.Job.fingerprint o))
              [ 2; 3; 8 ])
          (seeded_programs ()));
    Tu.case "a fatal post run on a helper surfaces in failure-point order, releasing every byte"
      (fun () ->
        if Pool.cap >= 1 then begin
          let caller = Domain.self () in
          let helper_ran = Atomic.make false in
          let mu = Mutex.create () and on_helper = ref [] in
          (* The caller's runs wait until a helper has taken a point, so
             at least one fails on a helper, whatever the scheduling. *)
          let post epoch =
            if Domain.self () = caller then
              while not (Atomic.get helper_ran) do
                Domain.cpu_relax ()
              done
            else begin
              Atomic.set helper_ran true;
              Mutex.protect mu (fun () -> on_helper := epoch :: !on_helper);
              raise (Assert_failure ("helper", epoch, 0))
            end
          in
          let image0 = Xfd_mem.Image.live_bytes () in
          let shadow0 = Xfd_mem.Shadow_pages.live_bytes () in
          (match
             Tu.detect ~config:{ Config.default with post_jobs = 3 } (epoch_program ~n:6 ~post)
           with
          | _ -> Alcotest.fail "the assertion was swallowed"
          | exception Assert_failure (_, epoch, _) ->
            Alcotest.(check int) "the first failing point's exception"
              (List.fold_left min max_int !on_helper) epoch);
          Alcotest.(check int) "pm chunk bytes released" image0 (Xfd_mem.Image.live_bytes ());
          Alcotest.(check int) "shadow page bytes released" shadow0
            (Xfd_mem.Shadow_pages.live_bytes ())
        end);
    Tu.case "a batch whose helpers are busy with another batch runs on its caller alone"
      (fun () ->
        if Pool.cap >= 1 then begin
          let caller = Domain.self () in
          let a_on_helper = Atomic.make false and b_done = Atomic.make false in
          (* Batch A's helper run holds its helper until batch B is done;
             A's caller returns once a helper holds A. *)
          let work_a () =
            if Domain.self () = caller then
              while not (Atomic.get a_on_helper) do
                Thread.yield ()
              done
            else begin
              Atomic.set a_on_helper true;
              while not (Atomic.get b_done) do
                Domain.cpu_relax ()
              done
            end
          in
          let a_helpers = ref (-1) in
          let a = Thread.create (fun () -> a_helpers := Pool.run ~helpers:Pool.cap work_a) () in
          while not (Atomic.get a_on_helper) do
            Thread.yield ()
          done;
          (* Every helper may be busy with A; B must not wait for one. *)
          let b_ran = ref 0 in
          let b_helpers = Pool.run ~helpers:1 (fun () -> incr b_ran) in
          Atomic.set b_done true;
          Thread.join a;
          Alcotest.(check bool) "B ran on its caller" true (!b_ran >= 1);
          Alcotest.(check bool) "B's helpers" true (b_helpers <= 1);
          Alcotest.(check bool) "A had a helper" true (!a_helpers >= 1)
        end);
    Tu.case "two threads detecting at post_jobs=3 at once both get the sequential verdicts"
      (fun () ->
        let programs =
          [
            (fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:3 ());
            (fun () -> Xfd_workloads.Hashmap_atomic.program ~init_size:2 ~size:3 ());
          ]
        in
        let expected = List.map (fun p -> Xfd_serve.Job.fingerprint (Tu.detect (p ()))) programs in
        let results = Array.make (List.length programs) [] in
        let threads =
          List.mapi
            (fun i p ->
              Thread.create
                (fun () ->
                  let config = { Config.default with post_jobs = 3 } in
                  results.(i) <-
                    List.init 5 (fun _ ->
                        match Tu.detect ~config (p ()) with
                        | o -> Xfd_serve.Job.fingerprint o
                        | exception e -> Printexc.to_string e))
                ())
            programs
        in
        List.iter Thread.join threads;
        List.iteri
          (fun i fp ->
            Alcotest.(check (list string)) (Printf.sprintf "thread %d" i) (List.init 5 (fun _ -> fp))
              results.(i))
          expected);
  ]

let suite =
  [
    ("engine", tests);
    ("engine.config", config_tests);
    ("engine.workers", worker_exception_tests);
    ("engine.stream", stream_tests);
    ("engine.pool", pool_tests);
  ]
