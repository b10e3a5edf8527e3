(* The observability layer: metric math, span nesting, JSONL sink
   round-tripping, and the guarantee that telemetry never changes what the
   detector finds. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json
module Engine = Xfd.Engine

let counter_tests =
  [
    Tu.case "counter arithmetic and registry idempotence" (fun () ->
        let c = Obs.Counter.make "test.obs.counter" in
        let v0 = Obs.Counter.value c in
        Obs.Counter.incr c;
        Obs.Counter.add c 41;
        Alcotest.(check int) "incr+add" (v0 + 42) (Obs.Counter.value c);
        let c' = Obs.Counter.make "test.obs.counter" in
        Obs.Counter.incr c';
        Alcotest.(check int) "same instance by name" (v0 + 43) (Obs.Counter.value c);
        Alcotest.(check string) "name" "test.obs.counter" (Obs.Counter.name c);
        Alcotest.(check (option int))
          "lookup by name" (Some (v0 + 43))
          (Obs.counter_value "test.obs.counter"));
    Tu.case "registering a name as two metric kinds is rejected" (fun () ->
        let _ = Obs.Counter.make "test.obs.kind_clash" in
        Alcotest.check_raises "clash"
          (Invalid_argument "Obs: \"test.obs.kind_clash\" already registered as another metric kind")
          (fun () -> ignore (Obs.Gauge.make "test.obs.kind_clash")));
    Tu.case "gauge stores the last value" (fun () ->
        let g = Obs.Gauge.make "test.obs.gauge" in
        Obs.Gauge.set g 2.5;
        Obs.Gauge.set g 7.25;
        Alcotest.(check (float 0.0)) "last write wins" 7.25 (Obs.Gauge.value g));
    Tu.case "histogram is log-scale with exact count/sum/max" (fun () ->
        let h = Obs.Histogram.make "test.obs.hist" in
        List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; 4; 7; 8; 1000 ];
        Alcotest.(check int) "count" 8 (Obs.Histogram.count h);
        Alcotest.(check int) "sum" 1024 (Obs.Histogram.sum h);
        Alcotest.(check int) "max" 1000 (Obs.Histogram.max_value h);
        (* 0 -> le 0; 1,1 -> le 1; 3 -> le 3; 4,7 -> le 7; 8 -> le 15;
           1000 -> le 1023. *)
        Alcotest.(check (list (pair int int)))
          "buckets"
          [ (0, 1); (1, 2); (3, 1); (7, 2); (15, 1); (1023, 1) ]
          (Obs.Histogram.buckets h));
    Tu.case "quantile estimates interpolate within log-scale buckets" (fun () ->
        let h = Obs.Histogram.make "test.obs.quant" in
        Alcotest.(check int) "empty histogram estimates 0" 0 (Obs.Histogram.quantile h 0.5);
        for v = 1 to 100 do
          Obs.Histogram.observe h v
        done;
        (* rank 50 lands in bucket [32,63]: 32 + (50-31)/32 * 31 = 50.4. *)
        Alcotest.(check int) "p50 of 1..100" 50 (Obs.Histogram.quantile h 0.50);
        (* The tail buckets interpolate past the observed maximum; the
           estimate is clamped so it never exceeds a real sample. *)
        Alcotest.(check int) "p95 clamps to the observed max" 100
          (Obs.Histogram.quantile h 0.95);
        Alcotest.(check int) "p99 clamps to the observed max" 100
          (Obs.Histogram.quantile h 0.99);
        Alcotest.(check int) "q<=0 is the first sample's bucket" 1
          (Obs.Histogram.quantile h (-1.0));
        Alcotest.(check int) "q>=1 is the max" 100 (Obs.Histogram.quantile h 2.0));
    Tu.case "quantiles are monotone in q and cover p50/p95/p99" (fun () ->
        let h = Obs.Histogram.make "test.obs.quant_mono" in
        (* Heavily skewed: many small, few huge. *)
        for _ = 1 to 90 do
          Obs.Histogram.observe h 2
        done;
        for _ = 1 to 9 do
          Obs.Histogram.observe h 1000
        done;
        Obs.Histogram.observe h 100000;
        let q50 = Obs.Histogram.quantile h 0.50 in
        let q95 = Obs.Histogram.quantile h 0.95 in
        let q99 = Obs.Histogram.quantile h 0.99 in
        Alcotest.(check bool) "p50 <= p95 <= p99" true (q50 <= q95 && q95 <= q99);
        Alcotest.(check bool) "p50 sits in the dominant bucket [2,3]" true
          (q50 >= 2 && q50 <= 3);
        Alcotest.(check bool) "p95 reaches the heavy tail" true (q95 >= 512 && q95 <= 1023);
        Alcotest.(check (list (pair (float 0.0) int)))
          "quantiles returns the conventional three"
          [ (0.50, q50); (0.95, q95); (0.99, q99) ]
          (Obs.Histogram.quantiles h));
    Tu.case "summary_json carries the quantile estimates" (fun () ->
        let h = Obs.Histogram.make "test.obs.quant_sum" in
        List.iter (Obs.Histogram.observe h) [ 1; 2; 3; 4 ];
        let j = Obs.summary_json () in
        match
          Option.bind (Json.member "histograms" j) (Json.member "test.obs.quant_sum")
        with
        | None -> Alcotest.fail "histogram missing from summary"
        | Some hj ->
          List.iter
            (fun key ->
              match Json.member key hj with
              | Some (Json.Int v) ->
                Alcotest.(check bool) (key ^ " sane") true (v >= 1 && v <= 4)
              | _ -> Alcotest.failf "summary histogram lacks %s" key)
            [ "p50"; "p95"; "p99" ]);
    Tu.case "disabled mode records nothing" (fun () ->
        let c = Obs.Counter.make "test.obs.noop_counter" in
        let h = Obs.Histogram.make "test.obs.noop_hist" in
        let v0 = Obs.Counter.value c and n0 = Obs.Histogram.count h in
        Obs.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled true)
          (fun () ->
            Obs.Counter.incr c;
            Obs.Counter.add c 10;
            Obs.Histogram.observe h 5);
        Alcotest.(check int) "counter unchanged" v0 (Obs.Counter.value c);
        Alcotest.(check int) "histogram unchanged" n0 (Obs.Histogram.count h));
  ]

let span_tests =
  [
    Tu.case "spans nest, time monotonically and collect per run" (fun () ->
        let r, records =
          Obs.Span.root ~name:"test.outer" (fun sc ->
              Obs.Span.child sc ~name:"test.inner" (fun _ -> 6 * 7))
        in
        Alcotest.(check int) "result threads through" 42 r;
        Alcotest.(check int) "both spans collected" 2 (List.length records);
        let inner = List.nth records 0 and outer = List.nth records 1 in
        Alcotest.(check string) "inner finishes first" "test.inner" inner.Obs.Span.name;
        Alcotest.(check string) "outer finishes last" "test.outer" outer.Obs.Span.name;
        Alcotest.(check (option int))
          "parent linkage" (Some outer.Obs.Span.id) inner.Obs.Span.parent;
        Alcotest.(check (option int)) "outer is a root" None outer.Obs.Span.parent;
        Alcotest.(check bool) "durations non-negative" true
          (inner.Obs.Span.dur >= 0.0 && outer.Obs.Span.dur >= 0.0);
        Alcotest.(check bool) "child within parent" true
          (inner.Obs.Span.dur <= outer.Obs.Span.dur +. 1e-9);
        Alcotest.(check bool) "start ordering" true
          (outer.Obs.Span.start <= inner.Obs.Span.start +. 1e-9);
        (* Only a scope parents a span: a bare [with_] inside a run is a
           root of its own, and no run collects it. *)
        let (), records =
          Obs.Span.root ~name:"test.run" (fun _ -> Obs.Span.with_ ~name:"test.bare" (fun () -> ()))
        in
        Alcotest.(check (list string))
          "a bare span stays out of the run" [ "test.run" ]
          (List.map (fun r -> r.Obs.Span.name) records));
    Tu.case "spans record on exceptions too" (fun () ->
        let (), records =
          Obs.Span.root ~name:"test.run" (fun sc ->
              try Obs.Span.child sc ~name:"test.raises" (fun _ -> failwith "boom")
              with Failure _ -> ())
        in
        Alcotest.(check (list string))
          "the raising span is recorded" [ "test.raises"; "test.run" ]
          (List.map (fun r -> r.Obs.Span.name) records);
        (* A raising root returns no list, but its span is still
           aggregated. *)
        let count () =
          match List.assoc_opt "test.raises.root" (Obs.Span.aggregate_all ()) with
          | Some (n, _) -> n
          | None -> 0
        in
        let n0 = count () in
        (try ignore (Obs.Span.root ~name:"test.raises.root" (fun _ -> failwith "boom"))
         with Failure _ -> ());
        Alcotest.(check int) "the raising root is aggregated" (n0 + 1) (count ()));
    Tu.case "aggregate sums per name" (fun () ->
        let (), records =
          Obs.Span.root ~name:"test.agg.run" (fun sc ->
              for _ = 1 to 3 do
                Obs.Span.child sc ~name:"test.agg" (fun _ -> ())
              done)
        in
        match Obs.Span.aggregate records with
        | [ ("test.agg", (count, total)); ("test.agg.run", (1, _)) ] ->
          Alcotest.(check int) "count" 3 count;
          Alcotest.(check bool) "total is a sum of durations" true (total >= 0.0)
        | other ->
          Alcotest.failf "unexpected aggregate of %d names" (List.length other));
  ]

let jsonl_tests =
  [
    Tu.case "JSONL sink output round-trips through the parser" (fun () ->
        let path = Filename.temp_file "xfd_obs" ".jsonl" in
        let sink = Obs.Sink.to_file path in
        Obs.Sink.install sink;
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Obs.Span.with_ ~name:"test.sink.span" (fun () ->
                Obs.Counter.incr (Obs.Counter.make "test.obs.sink_counter"));
            Obs.write_summary ();
            Obs.Sink.uninstall sink;
            let ic = open_in path in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> close_in ic);
            let lines = List.rev !lines in
            Alcotest.(check bool) "at least span + summary" true (List.length lines >= 2);
            let parsed =
              List.map
                (fun line ->
                  match Json.of_string line with
                  | Ok v -> v
                  | Error m -> Alcotest.failf "invalid JSONL line %S: %s" line m)
                lines
            in
            let typed ty =
              List.filter (fun j -> Json.member "type" j = Some (Json.Str ty)) parsed
            in
            let spans = typed "span" and summaries = typed "summary" in
            Alcotest.(check bool) "has our span record" true
              (List.exists
                 (fun j -> Json.member "name" j = Some (Json.Str "test.sink.span"))
                 spans);
            match summaries with
            | [ s ] ->
              let counters =
                match Json.member "counters" s with Some c -> c | None -> Json.Null
              in
              Alcotest.(check bool) "summary carries the counter" true
                (match Json.member "test.obs.sink_counter" counters with
                | Some (Json.Int n) -> n >= 1
                | _ -> false);
              Alcotest.(check bool) "summary aggregates spans" true
                (match Json.member "spans" s with
                | Some sp -> Json.member "test.sink.span" sp <> None
                | None -> false)
            | _ -> Alcotest.fail "expected exactly one summary record"));
  ]

(* Strip nondeterministic floats: what detection *found*. *)
let fingerprint (o : Engine.outcome) =
  ( o.Engine.program,
    o.Engine.failure_points,
    o.Engine.pre_events,
    o.Engine.post_events,
    List.map Xfd.Report.dedup_key o.Engine.unique_bugs,
    List.map
      (fun r -> (r.Xfd.Report.failure_point, r.Xfd.Report.trace_pos, List.length r.Xfd.Report.bugs))
      o.Engine.reports )

let engine_tests =
  [
    Tu.case "no-op mode has zero effect on detection outcomes" (fun () ->
        let program () = Xfd_workloads.Array_update.program ~size:2 () in
        let on = Tu.detect (program ()) in
        Obs.set_enabled false;
        let off =
          Fun.protect ~finally:(fun () -> Obs.set_enabled true) (fun () -> Tu.detect (program ()))
        in
        Alcotest.(check bool) "identical findings" true (fingerprint on = fingerprint off);
        (* Spans still time the run even with metrics off, so the Figure 12
           numbers survive no-op mode. *)
        Alcotest.(check bool) "timings still populated" true
          (Engine.total_wall off > 0.0));
    Tu.case "outcome timings are exactly the span-tree aggregation" (fun () ->
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        let derived = Engine.timings_of_spans o.Engine.spans in
        Alcotest.(check bool) "derived = recorded" true (derived = o.Engine.timings);
        (* And the phases account for (almost all of) the root span: the
           engine does little outside the four phases. *)
        let root =
          List.find (fun r -> String.equal r.Obs.Span.name "detect") o.Engine.spans
        in
        let t = o.Engine.timings in
        let phase_sum =
          t.Engine.pre_exec +. t.Engine.post_exec +. t.Engine.pre_replay
          +. t.Engine.post_replay +. t.Engine.snapshotting
        in
        Alcotest.(check bool) "phases fit inside the root span" true
          (phase_sum <= root.Obs.Span.dur +. 1e-6);
        Alcotest.(check bool) "phases dominate the root span" true
          (phase_sum >= 0.5 *. root.Obs.Span.dur));
    Tu.case "span tree carries per-failure-point children" (fun () ->
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:1 ~size:1 ()) in
        let named n =
          List.filter (fun r -> String.equal r.Obs.Span.name n) o.Engine.spans
        in
        Alcotest.(check int) "one post_run per failure point" o.Engine.failure_points
          (List.length (named "post_run"));
        Alcotest.(check int) "one post_replay per failure point" o.Engine.failure_points
          (List.length (named "post_replay"));
        Alcotest.(check int) "snapshots match failure points" o.Engine.failure_points
          (List.length (named "snapshot"));
        (* pre_replay: one incremental segment per failure point plus the
           final catch-up segment. *)
        Alcotest.(check int) "pre_replay segments" (o.Engine.failure_points + 1)
          (List.length (named "pre_replay"));
        let fp_meta r =
          match List.assoc_opt "failure_point" r.Obs.Span.meta with
          | Some (Json.Int i) -> Some i
          | _ -> None
        in
        let fps = List.filter_map fp_meta (named "post_run") |> List.sort compare in
        Alcotest.(check (list int))
          "post_run meta enumerates failure points"
          (List.init o.Engine.failure_points Fun.id)
          fps);
    Tu.case "engine counters tally failure points and bugs" (fun () ->
        let before_fired = Option.value ~default:0 (Obs.counter_value "engine.failure_points.fired") in
        let before_races = Option.value ~default:0 (Obs.counter_value "bugs.race") in
        let o = Tu.detect (Xfd_workloads.Array_update.program ~size:1 ()) in
        let fired =
          Option.value ~default:0 (Obs.counter_value "engine.failure_points.fired")
          - before_fired
        in
        Alcotest.(check int) "fired counter matches outcome" o.Engine.failure_points fired;
        let races, _, _, _ = Engine.tally o in
        let race_emissions =
          Option.value ~default:0 (Obs.counter_value "bugs.race") - before_races
        in
        Alcotest.(check bool) "bug emissions cover unique races" true
          (race_emissions >= races && races >= 1));
  ]

let cval name = Option.value ~default:0 (Obs.counter_value name)

let bound_tests =
  [
    Tu.case "negative samples are rejected and counted, not clamped" (fun () ->
        let h = Obs.Histogram.make "test.obs.neg_hist" in
        Obs.Histogram.observe h 5;
        let n0 = Obs.Histogram.count h and s0 = Obs.Histogram.sum h in
        let d0 = cval "obs.observe_dropped" in
        Obs.Histogram.observe h (-3);
        Alcotest.(check int) "count unchanged" n0 (Obs.Histogram.count h);
        Alcotest.(check int) "sum unchanged (no zero-clamp skew)" s0 (Obs.Histogram.sum h);
        Alcotest.(check (list (pair int int)))
          "buckets unchanged" [ (7, 1) ] (Obs.Histogram.buckets h);
        Alcotest.(check int) "drop counted" (d0 + 1) (cval "obs.observe_dropped"));
  ]

let mt_tests =
  [
    Tu.case "metrics sum exactly under 4-domain hammering" (fun () ->
        let c = Obs.Counter.make "test.obs.mt_counter" in
        let h = Obs.Histogram.make "test.obs.mt_hist" in
        let v0 = Obs.Counter.value c in
        let n0 = Obs.Histogram.count h and s0 = Obs.Histogram.sum h in
        let per = 10_000 in
        let work () =
          for i = 1 to per do
            Obs.Counter.incr c;
            Obs.Histogram.observe h (i land 7)
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn work) in
        List.iter Domain.join domains;
        Alcotest.(check int) "counter exact" (v0 + (4 * per)) (Obs.Counter.value c);
        Alcotest.(check int) "histogram count exact" (n0 + (4 * per)) (Obs.Histogram.count h);
        (* i land 7 cycles 1..7,0: each period of 8 sums to 28. *)
        Alcotest.(check int) "histogram sum exact"
          (s0 + (4 * (per / 8 * 28)))
          (Obs.Histogram.sum h));
  ]

(* ---- ownership under concurrency ----

   [xfd serve] runs its workers as systhreads of one domain, so two
   served detects overlap on the same domain.  Each detect must still get
   exactly its own spans and tag its flight events with its own run id. *)

module Flight = Xfd_flight.Flight

(* Two threads, each running [per_thread] detects of [program] in turn. *)
let two_threads ~config ~per_thread program =
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () -> results.(i) <- List.init per_thread (fun _ -> Tu.detect ~config (program ())))
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check (list int)) "every detect returned" [ per_thread; per_thread ]
    (Array.to_list (Array.map List.length results));
  results.(0) @ results.(1)

(* [o]'s spans form one tree rooted at its own parentless detect span,
   with a post_run per failure point, and its timings are theirs. *)
let check_owned i (o : Engine.outcome) =
  let name what = Printf.sprintf "outcome %d: %s" i what in
  let spans = o.Engine.spans in
  let ids = List.map (fun r -> r.Obs.Span.id) spans in
  let roots = List.filter (fun r -> r.Obs.Span.parent = None) spans in
  Alcotest.(check (list string)) (name "one parentless root, detect") [ "detect" ]
    (List.map (fun r -> r.Obs.Span.name) roots);
  List.iter
    (fun r ->
      match r.Obs.Span.parent with
      | Some p when not (List.mem p ids) ->
        Alcotest.failf "%s: %s span %d has parent %d outside the outcome" (name "tree")
          r.Obs.Span.name r.Obs.Span.id p
      | _ -> ())
    spans;
  Alcotest.(check int) (name "one post_run per failure point") o.Engine.failure_points
    (List.length (List.filter (fun r -> String.equal r.Obs.Span.name "post_run") spans));
  Alcotest.(check bool) (name "timings are its own spans'") true
    (Engine.timings_of_spans spans = o.Engine.timings)

(* Every run in the flight ring has one run.begin and one run.end, and as
   many fp.started and fp.verdict events as its run.end's failure_points. *)
let check_flight_runs ~runs =
  let evs = Flight.events () in
  let begun =
    List.filter_map (fun e -> if e.Flight.name = "run.begin" then Some e.Flight.run else None) evs
  in
  Alcotest.(check int) "a run.begin per detect" runs (List.length begun);
  List.iter
    (fun run ->
      let mine = List.filter (fun e -> e.Flight.run = run) evs in
      let count n = List.length (List.filter (fun e -> e.Flight.name = n) mine) in
      Alcotest.(check int) (run ^ ": one run.begin") 1 (count "run.begin");
      Alcotest.(check int) (run ^ ": one run.end") 1 (count "run.end");
      let fps =
        match List.find_opt (fun e -> e.Flight.name = "run.end") mine with
        | Some e -> (
          match List.assoc_opt "failure_points" e.Flight.fields with
          | Some (Json.Int n) -> n
          | _ -> -1)
        | None -> -1
      in
      Alcotest.(check int) (run ^ ": an fp.started per failure point") fps (count "fp.started");
      Alcotest.(check int) (run ^ ": an fp.verdict per failure point") fps (count "fp.verdict"))
    begun

let ownership_case label ~config program =
  Tu.case label (fun () ->
      let lvl0 = Flight.level () and cap0 = Flight.capacity () in
      Flight.clear ();
      Flight.set_level Flight.Debug;
      Flight.set_capacity 16_384;
      Fun.protect
        ~finally:(fun () ->
          Flight.set_level lvl0;
          Flight.set_capacity cap0;
          Flight.clear ())
        (fun () ->
          let d0 = cval "flight.events_dropped" in
          let per_thread = 20 in
          let outcomes = two_threads ~config ~per_thread program in
          List.iteri check_owned outcomes;
          Alcotest.(check int) "the flight ring kept every event" d0
            (cval "flight.events_dropped");
          check_flight_runs ~runs:(2 * per_thread)))

let ownership_tests =
  [
    ownership_case "two threads x 20 streamed detects: each owns its spans and run id"
      ~config:Xfd.Config.default
      (fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:3 ());
    ownership_case "two threads x 20 detects at post_jobs=3: helpers' spans and events stay home"
      ~config:{ Xfd.Config.default with post_jobs = 3 }
      (fun () -> Xfd_workloads.Array_update.program ~size:3 ());
  ]

let suite =
  [
    ("obs.metrics", counter_tests);
    ("obs.spans", span_tests);
    ("obs.bounds", bound_tests);
    ("obs.mt", mt_tests);
    ("obs.ownership", ownership_tests);
    ("obs.jsonl", jsonl_tests);
    ("obs.engine", engine_tests);
  ]
