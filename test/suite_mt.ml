(* Tests for multithreaded PM programs (section 7), parallelized detection
   (the paper's future work) and the decoupled offline backend (section
   5.5's frontend/backend split). *)

module Ctx = Xfd_sim.Ctx
module Mt = Xfd_sim.Mt
module Trace = Xfd_trace.Trace
module Event = Xfd_trace.Event

let l = Tu.loc __POS__
let base = Xfd_mem.Addr.pool_base

let mt_tests =
  [
    Tu.case "threads interleave at PM-operation granularity" (fun () ->
        let _, trace, ctx = Tu.make_ctx () in
        (* Two threads, each writing its own slot three times; seeded
           scheduling must mix their operations. *)
        let thread t ctx =
          for i = 0 to 2 do
            Ctx.write_i64 ctx ~loc:l (base + (64 * t)) (Int64.of_int i)
          done
        in
        Mt.interleave ~schedule:(Mt.Seeded 42) [ thread 0; thread 1 ] ctx;
        Alcotest.(check int) "all six writes happened" 6 (Trace.counts trace).Trace.writes;
        Alcotest.(check bool) "context switches occurred" true (Mt.last_switches () > 0));
    Tu.case "round-robin quantum switches deterministically" (fun () ->
        let order = ref [] in
        let _, _, ctx = Tu.make_ctx () in
        let thread t ctx =
          for _ = 0 to 3 do
            order := t :: !order;
            Ctx.write_i64 ctx ~loc:l (base + (64 * t)) 1L
          done
        in
        Mt.interleave ~schedule:(Mt.Round_robin 2) [ thread 0; thread 1 ] ctx;
        (* Threads record *before* their next yield, so quantum-2 scheduling
           produces a strictly alternating pair pattern. *)
        let a = List.rev !order in
        let run2 () =
          let order2 = ref [] in
          let _, _, ctx = Tu.make_ctx () in
          let thread t ctx =
            for _ = 0 to 3 do
              order2 := t :: !order2;
              Ctx.write_i64 ctx ~loc:l (base + (64 * t)) 1L
            done
          in
          Mt.interleave ~schedule:(Mt.Round_robin 2) [ thread 0; thread 1 ] ctx;
          List.rev !order2
        in
        Alcotest.(check (list int)) "deterministic" a (run2 ()));
    Tu.case "seeded schedules are reproducible and seed-dependent" (fun () ->
        let run seed =
          let order = ref [] in
          let _, _, ctx = Tu.make_ctx () in
          let thread t ctx =
            for _ = 0 to 5 do
              order := t :: !order;
              Ctx.write_i64 ctx ~loc:l (base + (64 * t)) 1L
            done
          in
          Mt.interleave ~schedule:(Mt.Seeded seed) [ thread 0; thread 1; thread 2 ] ctx;
          List.rev !order
        in
        Alcotest.(check (list int)) "same seed, same schedule" (run 7) (run 7);
        Alcotest.(check bool) "different seeds differ" true (run 7 <> run 8));
    Tu.case "a thread exception aborts the interleaving" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        let bad _ctx = failwith "thread crash" in
        let good ctx = Ctx.write_i64 ctx ~loc:l base 1L in
        match Mt.interleave ~schedule:(Mt.Round_robin 1) [ good; bad ] ctx with
        | () -> Alcotest.fail "expected the exception to propagate"
        | exception Failure _ -> ());
    Tu.case "scheduler hook is removed afterwards" (fun () ->
        let _, _, ctx = Tu.make_ctx () in
        Mt.interleave ~schedule:(Mt.Round_robin 1)
          [ (fun ctx -> Ctx.write_i64 ctx ~loc:l base 1L) ]
          ctx;
        (* If the hook leaked, this write would perform an unhandled
           effect. *)
        Ctx.write_i64 ctx ~loc:l base 2L;
        Alcotest.(check pass) "no unhandled effect" () ());
    Tu.case "independent per-thread logs are clean under every schedule" (fun () ->
        List.iter
          (fun schedule ->
            Tu.check_clean "mt independent"
              (Tu.detect (Xfd_workloads.Mt_log.program ~schedule ())))
          [ Mt.Round_robin 1; Mt.Round_robin 3; Mt.Seeded 1; Mt.Seeded 99 ]);
    Tu.case "unsynchronized shared log races under interleaving" (fun () ->
        let r, s, _, _ =
          Tu.tally_of
            (Xfd_workloads.Mt_log.program ~variant:`Shared_unsynchronized
               ~schedule:(Mt.Seeded 1234) ())
        in
        Alcotest.(check bool) "flagged" true (r + s >= 1));
    Tu.case "single-thread interleave equals direct execution" (fun () ->
        let run mt =
          let _, trace, ctx = Tu.make_ctx () in
          let body ctx =
            Ctx.write_i64 ctx ~loc:l base 5L;
            Ctx.persist_barrier ctx ~loc:l base 8
          in
          if mt then Mt.interleave ~schedule:(Mt.Round_robin 1) [ body ] ctx else body ctx;
          List.map (fun e -> Format.asprintf "%a" Event.pp_kind e.Event.kind) (Trace.to_list trace)
        in
        Alcotest.(check (list string)) "same trace" (run false) (run true));
  ]

let offline_tests =
  [
    Tu.case "traces round trip through files and re-check offline" (fun () ->
        (* Record the figure 2 buggy workload, save both stages, reload and
           run the backend offline: the terminal-point analysis must report
           the stale-backup semantic bug. *)
        let program = Xfd_workloads.Array_update.program ~size:1 () in
        let dev = Xfd_mem.Pm_device.create () in
        let pre_t = Trace.create () in
        let ctx = Ctx.create ~stage:Ctx.Pre_failure ~dev ~trace:pre_t () in
        program.Xfd.Engine.setup ctx;
        program.Xfd.Engine.pre ctx;
        let post_dev = Xfd_mem.Pm_device.boot (Xfd_mem.Pm_device.crash dev Xfd_mem.Pm_device.Full) in
        let post_t = Trace.create () in
        let post_ctx = Ctx.create ~stage:Ctx.Post_failure ~dev:post_dev ~trace:post_t () in
        program.Xfd.Engine.post post_ctx;
        let via_file t =
          let file = Filename.temp_file "xfd" ".trace" in
          let oc = open_out file in
          Trace.save t oc;
          close_out oc;
          let ic = open_in file in
          let t' = Trace.load ic in
          close_in ic;
          Sys.remove file;
          Result.get_ok t'
        in
        let pre_t = via_file pre_t and post_t = via_file post_t in
        let det = Xfd.Detector.create () in
        Xfd.Detector.replay det pre_t ~from:0 ~upto:(Trace.length pre_t);
        let fork = Xfd.Detector.fork_for_post det in
        Xfd.Detector.replay fork post_t ~from:0 ~upto:(Trace.length post_t);
        let semantic = List.filter Xfd.Report.is_semantic (Xfd.Detector.bugs fork) in
        Alcotest.(check bool) "offline semantic bug found" true (semantic <> []));
  ]

let suite =
  [
    ("mt.interleave", mt_tests);
    ("mt.offline_backend", offline_tests);
  ]
