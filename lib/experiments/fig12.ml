type row = {
  name : string;
  failure_points : int;
  total : float;
  pre_share : float;
  post_share : float;
  pure_trace : float;
  original : float;
}

(* Medians over repeated timing runs to tame scheduler noise. *)
let median3 f =
  let xs = List.sort compare [ f (); f (); f () ] in
  List.nth xs 1

let run ?(init = 0) ?(test = 1) () =
  List.map
    (fun e ->
      let outcome = Xfd.Engine.detect (e.Workload_set.make ~init ~test) in
      let pre, post = Xfd.Engine.wall_breakdown outcome in
      let pure_trace =
        median3 (fun () -> (Xfd_baselines.Pure_trace.run (e.Workload_set.make ~init ~test)).Xfd_baselines.Pure_trace.wall)
      in
      let original =
        median3 (fun () -> Xfd_baselines.Pure_trace.run_original (e.Workload_set.make ~init ~test))
      in
      {
        name = e.Workload_set.name;
        failure_points = outcome.Xfd.Engine.failure_points;
        total = pre +. post;
        pre_share = pre;
        post_share = post;
        pure_trace;
        original;
      })
    Workload_set.all

let print_a rows =
  Tbl.print
    ~title:"Figure 12a: detection wall-clock time, pre/post breakdown"
    ~header:[ "workload"; "failure pts"; "total"; "pre-failure"; "post-failure"; "post %" ]
    (List.map
       (fun r ->
         [
           r.name;
           string_of_int r.failure_points;
           Tbl.secs r.total;
           Tbl.secs r.pre_share;
           Tbl.secs r.post_share;
           Printf.sprintf "%.0f%%" (100.0 *. r.post_share /. (max 1e-12 r.total));
         ])
       rows);
  let avg = List.fold_left (fun a r -> a +. r.total) 0.0 rows /. float (List.length rows) in
  Printf.printf "average detection time per workload: %s\n" (Tbl.secs avg)

let print_b rows =
  Tbl.print ~title:"Figure 12b: slowdown over Pure-Pin-style tracing and original program"
    ~header:[ "workload"; "detect"; "pure trace"; "original"; "over trace"; "over original" ]
    (List.map
       (fun r ->
         [
           r.name;
           Tbl.secs r.total;
           Tbl.secs r.pure_trace;
           Tbl.secs r.original;
           Tbl.times (r.total /. max 1e-9 r.pure_trace);
           Tbl.times (r.total /. max 1e-9 r.original);
         ])
       rows);
  let g_over_trace = Tbl.geomean (List.map (fun r -> r.total /. max 1e-9 r.pure_trace) rows) in
  let g_over_orig = Tbl.geomean (List.map (fun r -> r.total /. max 1e-9 r.original) rows) in
  Printf.printf "geo. mean slowdown: %s over tracing-only, %s over the original program\n"
    (Tbl.times g_over_trace) (Tbl.times g_over_orig);
  Printf.printf "(paper, on Optane hardware with Pin: 12.3x and 400.8x)\n"
