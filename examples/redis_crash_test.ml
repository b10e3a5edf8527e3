(* Crash-testing the mini PM-Redis through its wire protocol.

     dune exec examples/redis_crash_test.exe

   Part 1 drives the server with RESP queries, crashes it (keeping only the
   bytes guaranteed durable), restarts it and checks what survived — the
   end-to-end behaviour a user of the store cares about.  Part 2 runs
   cross-failure detection over the server's start-up + SET path and finds
   the paper's Bug 3 (the entry counter initialised outside any
   transaction), then shows the transactional fix is clean. *)

module Ctx = Xfd_sim.Ctx
module Device = Xfd_mem.Pm_device

let () =
  print_endline "Part 1: crash / restart through the RESP interface";
  print_endline "--------------------------------------------------";
  let dev = Device.create () in
  let trace = Xfd_trace.Trace.create () in
  let ctx = Ctx.create ~stage:Ctx.Pre_failure ~dev ~trace () in
  let server = Xfd_redis.Server.init_persistent_memory ctx ~variant:`Fixed in
  let say q =
    let reply = Xfd_redis.Server.handle ctx server q in
    Printf.printf "  > %-22s %s" (String.trim q) reply
  in
  say "SET lang ocaml\r\n";
  say "SET paper xfdetector\r\n";
  say "INCR hits\r\n";
  say "DBSIZE\r\n";

  (* Power failure: only bytes that were flushed AND fenced survive. *)
  let survivor = Device.boot_image_only (Device.crash dev Device.Strict) in
  let trace' = Xfd_trace.Trace.create () in
  let ctx' = Ctx.create ~stage:Ctx.Post_failure ~dev:survivor ~trace:trace' () in
  let server' = Xfd_redis.Server.restart ctx' in
  let ask q =
    let reply = Xfd_redis.Server.handle ctx' server' q in
    Printf.printf "  < %-22s %s" (String.trim q) reply
  in
  print_endline "  -- power failure; restart --";
  ask "GET lang\r\n";
  ask "GET paper\r\n";
  ask "GET hits\r\n";
  ask "DBSIZE\r\n";

  print_endline "\nPart 2: cross-failure detection of the server start-up path (Bug 3)";
  print_endline "--------------------------------------------------------------------";
  let faithful = Xfd.Engine.detect (Xfd_redis.Server.program ~size:2 ()) in
  List.iter
    (fun b -> Format.printf "  %a@." Xfd.Report.pp_bug b)
    faithful.Xfd.Engine.unique_bugs;
  let fixed = Xfd.Engine.detect (Xfd_redis.Server.program ~size:2 ~variant:`Fixed ()) in
  Printf.printf "  fixed variant findings: %d\n" (List.length fixed.Xfd.Engine.unique_bugs);
  let races, _, _, _ = Xfd.Engine.tally faithful in
  if races >= 1 && fixed.Xfd.Engine.unique_bugs = [] then
    print_endline "\nOK: Bug 3 detected in the faithful init; the transactional fix is clean."
  else begin
    print_endline "\nUNEXPECTED outcome";
    exit 1
  end
