type row = { jobs : int; helpers : int list; wall : float; verdicts_match_sequential : bool }

let verdicts outcome = List.map Xfd.Report.dedup_key outcome.Xfd.Engine.unique_bugs

(* The pool helpers that ran at least one of [o]'s post runs: the domains
   of its post_run spans other than the one that ran the detect. *)
let helpers_of (o : Xfd.Engine.outcome) =
  let tid name =
    List.filter_map
      (fun (r : Xfd_obs.Obs.Span.record) -> if r.name = name then Some r.tid else None)
      o.spans
  in
  let caller = tid "detect" in
  List.length (List.sort_uniq compare (List.filter (fun t -> not (List.mem t caller)) (tid "post_run")))

let run ?(size = 15) () =
  let program () = Xfd_workloads.Btree.program ~init_size:10 ~size () in
  let baseline = Xfd.Engine.detect (program ()) in
  List.map
    (fun jobs ->
      let config = { Xfd.Config.default with post_jobs = jobs } in
      let runs =
        List.init 3 (fun _ ->
            let t0 = Unix.gettimeofday () in
            let o = Xfd.Engine.detect ~config (program ()) in
            (Unix.gettimeofday () -. t0, o))
      in
      let wall = List.nth (List.sort compare (List.map fst runs)) 1 in
      {
        jobs;
        helpers = List.map (fun (_, o) -> helpers_of o) runs;
        wall;
        verdicts_match_sequential =
          List.for_all (fun (_, o) -> verdicts o = verdicts baseline) runs;
      })
    [ 1; 2; 4 ]

let print rows =
  Tbl.print
    ~title:
      "Parallelized detection (the paper's future work; the caller plus pool helpers, \
       post_jobs - 1 at most)"
    ~header:[ "post_jobs"; "helpers per run"; "wall"; "vs jobs=1"; "verdicts = sequential" ]
    (let base = (List.hd rows).wall in
     List.map
       (fun r ->
         [
           string_of_int r.jobs;
           String.concat "/" (List.map string_of_int r.helpers);
           Tbl.secs r.wall;
           Tbl.times (base /. max 1e-9 r.wall);
           string_of_bool r.verdicts_match_sequential;
         ])
       rows);
  Printf.printf
    "helpers: the pool domains that ran at least one post run, in each of the three timed\n\
     runs; the process holds at most %d (recommended_domain_count - 1).  Speedup at\n\
     simulator scale is allocation-bound; in the paper's setting each post-failure\n\
     execution is a separate instrumented process and parallelism pays directly\n"
    Xfd_util.Domain_pool.cap
