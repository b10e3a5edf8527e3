(* The flight recorder, Perfetto trace export, live engine progress and
   the bench-diff comparator — and the guarantee that all of it is
   observation-only: verdicts are identical with every channel enabled. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json
module Engine = Xfd.Engine
module Flight = Xfd_flight.Flight
module Perfetto = Xfd_flight.Perfetto
module Bdiff = Xfd_flight.Bdiff

let program () = Xfd_workloads.Array_update.program ~size:2 ()
let cval name = Option.value ~default:0 (Obs.counter_value name)

(* Strip nondeterministic floats: what detection *found*. *)
let fingerprint (o : Engine.outcome) =
  ( o.Engine.program,
    o.Engine.failure_points,
    o.Engine.pre_events,
    o.Engine.post_events,
    List.map Xfd.Report.dedup_key o.Engine.unique_bugs,
    List.map
      (fun r -> (r.Xfd.Report.failure_point, r.Xfd.Report.trace_pos, r.Xfd.Report.bugs))
      o.Engine.reports )

(* Run [f] with the recorder in a known state, restoring level/capacity
   and clearing the ring afterwards. *)
let with_recorder ?(level = Flight.Info) f =
  let lvl0 = Flight.level () and cap0 = Flight.capacity () in
  Flight.clear ();
  Flight.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_level lvl0;
      Flight.set_capacity cap0;
      Flight.clear ())
    f

let recorder_tests =
  [
    Tu.case "events are leveled, ordered and stamped" (fun () ->
        with_recorder (fun () ->
            Flight.record ~level:Flight.Debug "test.debug" [];
            Flight.record "test.info" [ ("k", Json.Int 1) ];
            Flight.record ~level:Flight.Warn "test.warn" [];
            let names = List.map (fun e -> e.Flight.name) (Flight.events ()) in
            Alcotest.(check (list string))
              "debug filtered at the default threshold" [ "test.info"; "test.warn" ] names;
            Flight.set_level Flight.Debug;
            Flight.record ~level:Flight.Debug "test.debug2" [];
            let evs = Flight.events () in
            Alcotest.(check (list string))
              "debug retained once the threshold allows it"
              [ "test.info"; "test.warn"; "test.debug2" ]
              (List.map (fun e -> e.Flight.name) evs);
            let seqs = List.map (fun e -> e.Flight.seq) evs in
            Alcotest.(check (list int)) "seq strictly increasing" (List.sort compare seqs) seqs;
            Alcotest.(check bool) "fields survive" true
              (List.exists
                 (fun e -> List.assoc_opt "k" e.Flight.fields = Some (Json.Int 1))
                 evs)));
    Tu.case "the ring is bounded and counts drops" (fun () ->
        with_recorder (fun () ->
            Flight.set_capacity 4;
            let d0 = cval "flight.events_dropped" in
            for i = 1 to 10 do
              Flight.record (Printf.sprintf "test.e%d" i) []
            done;
            Alcotest.(check (list string))
              "the 4 newest survive, oldest-first"
              [ "test.e7"; "test.e8"; "test.e9"; "test.e10" ]
              (List.map (fun e -> e.Flight.name) (Flight.events ()));
            Alcotest.(check int) "the 6 oldest were counted" (d0 + 6)
              (cval "flight.events_dropped")));
    Tu.case "run ids are fresh and scope their events" (fun () ->
        with_recorder (fun () ->
            let r1 = Flight.begin_run ~program:"p1" in
            Flight.record "test.mid" [];
            let r2 = Flight.begin_run ~program:"p2" in
            Alcotest.(check bool) "distinct ids" true (r1 <> r2);
            Alcotest.(check string) "current id is the newest" r2 (Flight.run_id ());
            (* An overlapping run names itself explicitly. *)
            Flight.record ~run:r1 "test.late" [];
            let runs = List.map (fun e -> e.Flight.run) (Flight.events ()) in
            Alcotest.(check (list string)) "events carry their run" [ r1; r1; r2; r1 ] runs));
    Tu.case "disabled mode records nothing" (fun () ->
        with_recorder (fun () ->
            Flight.set_enabled false;
            Fun.protect
              ~finally:(fun () -> Flight.set_enabled true)
              (fun () -> Flight.record "test.ghost" []);
            Alcotest.(check int) "no event" 0 (List.length (Flight.events ()))));
    Tu.case "write_jsonl round-trips through the JSON parser" (fun () ->
        with_recorder (fun () ->
            let (_ : string) = Flight.begin_run ~program:"jsonl" in
            Flight.record "test.a" [ ("x", Json.Int 7) ];
            Flight.record ~level:Flight.Warn "test.b" [];
            let path = Filename.temp_file "xfd_flight" ".jsonl" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                let n = Flight.write_jsonl path in
                Alcotest.(check int) "all events written" 3 n;
                let ic = open_in path in
                let lines = ref [] in
                (try
                   while true do
                     lines := input_line ic :: !lines
                   done
                 with End_of_file -> close_in ic);
                let parsed =
                  List.rev_map
                    (fun l ->
                      match Json.of_string l with
                      | Ok j -> j
                      | Error e -> Alcotest.failf "unparseable JSONL line: %s" e)
                    !lines
                in
                Alcotest.(check int) "one record per event" 3 (List.length parsed);
                List.iter
                  (fun j ->
                    Alcotest.(check bool) "flight-typed" true
                      (Json.member "type" j = Some (Json.Str "flight")))
                  parsed)));
    Tu.case "the engine emits a complete lifecycle log" (fun () ->
        with_recorder ~level:Flight.Debug (fun () ->
            let o = Tu.detect (program ()) in
            let evs = Flight.events () in
            let count name =
              List.length (List.filter (fun e -> e.Flight.name = name) evs)
            in
            Alcotest.(check int) "one run.begin" 1 (count "run.begin");
            Alcotest.(check int) "one run.end" 1 (count "run.end");
            Alcotest.(check int) "a schedule per failure point" o.Engine.failure_points
              (count "fp.scheduled");
            Alcotest.(check int) "a snapshot per failure point" o.Engine.failure_points
              (count "snapshot.recorded");
            Alcotest.(check int) "a start per failure point" o.Engine.failure_points
              (count "fp.started");
            Alcotest.(check int) "a verdict per failure point" o.Engine.failure_points
              (count "fp.verdict");
            Alcotest.(check int) "no abort" 0 (count "run.abort");
            let run = Flight.run_id () in
            Alcotest.(check bool) "every event belongs to the run" true
              (List.for_all (fun e -> e.Flight.run = run) evs);
            (match (evs, List.rev evs) with
            | first :: _, last :: _ ->
              Alcotest.(check string) "begins with run.begin" "run.begin" first.Flight.name;
              Alcotest.(check string) "ends with run.end" "run.end" last.Flight.name
            | _ -> Alcotest.fail "empty event log");
            (* run.end carries the outcome's behavioral fingerprint. *)
            let fin = List.find (fun e -> e.Flight.name = "run.end") evs in
            Alcotest.(check (option Tu.json_t)) "failure_points"
              (Some (Json.Int o.Engine.failure_points))
              (List.assoc_opt "failure_points" fin.Flight.fields)));
  ]

let span_names trace =
  match Json.member "traceEvents" trace with
  | Some (Json.Arr evs) ->
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str "X"), Some (Json.Str n) -> Some n
        | _ -> None)
      evs
  | _ -> Alcotest.fail "traceEvents missing"

let perfetto_tests =
  [
    Tu.case "of_spans emits valid trace-event JSON that round-trips" (fun () ->
        let o = Tu.detect (program ()) in
        let trace = Perfetto.of_spans ~process_name:"t" o.Engine.spans in
        let reparsed =
          match Json.of_string (Json.to_string trace) with
          | Ok j -> j
          | Error e -> Alcotest.failf "trace does not round-trip: %s" e
        in
        Alcotest.(check bool) "round-trip is lossless" true (reparsed = trace);
        Alcotest.(check (option Tu.json_t)) "displayTimeUnit"
          (Some (Json.Str "ms"))
          (Json.member "displayTimeUnit" reparsed);
        let slices = span_names reparsed in
        Alcotest.(check int) "one slice per span" (List.length o.Engine.spans)
          (List.length slices);
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " slice present") true (List.mem n slices))
          [ "detect"; "pre_exec"; "post_exec"; "post_run"; "snapshot" ];
        (* Slices carry non-negative µs timestamps on declared tracks. *)
        (match Json.member "traceEvents" reparsed with
        | Some (Json.Arr evs) ->
          let tracks =
            List.filter_map
              (fun e ->
                match (Json.member "ph" e, Json.member "name" e) with
                | Some (Json.Str "M"), Some (Json.Str "thread_name") ->
                  Json.member "tid" e
                | _ -> None)
              evs
          in
          List.iter
            (fun e ->
              match Json.member "ph" e with
              | Some (Json.Str "X") ->
                (match (Json.member "ts" e, Json.member "dur" e) with
                | Some (Json.Float ts), Some (Json.Float dur) ->
                  Alcotest.(check bool) "ts/dur non-negative" true (ts >= 0.0 && dur >= 0.0)
                | _ -> Alcotest.fail "slice without numeric ts/dur");
                Alcotest.(check bool) "slice tid has a thread_name track" true
                  (match Json.member "tid" e with
                  | Some tid -> List.mem tid tracks
                  | None -> false)
              | _ -> ())
            evs
        | _ -> Alcotest.fail "traceEvents missing"));
    Tu.case "to_file writes a loadable trace" (fun () ->
        let o = Tu.detect (program ()) in
        let path = Filename.temp_file "xfd_trace" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Perfetto.to_file path o.Engine.spans;
            let content = In_channel.with_open_bin path In_channel.input_all in
            match Json.of_string content with
            | Ok j ->
              Alcotest.(check int) "all slices on disk" (List.length o.Engine.spans)
                (List.length (span_names j))
            | Error e -> Alcotest.failf "file unparseable: %s" e));
    Tu.case "the collector taps the stream across multiple runs" (fun () ->
        let c = Perfetto.Collector.start () in
        let o1 = Tu.detect (program ()) in
        let o2 = Tu.detect (Xfd_workloads.Btree.program ~init_size:1 ~size:1 ()) in
        let trace = Perfetto.Collector.stop c in
        Alcotest.(check int) "nothing dropped" 0 (Perfetto.Collector.dropped c);
        Alcotest.(check int) "both runs' spans collected"
          (List.length o1.Engine.spans + List.length o2.Engine.spans)
          (List.length (span_names trace)));
    Tu.case "an empty span set exports a loadable trace" (fun () ->
        let trace = Perfetto.of_spans ~process_name:"empty" [] in
        let reparsed =
          match Json.of_string (Json.to_string trace) with
          | Ok j -> j
          | Error e -> Alcotest.failf "empty trace does not round-trip: %s" e
        in
        Alcotest.(check (list string)) "no slices" [] (span_names reparsed);
        Alcotest.(check (option Tu.json_t)) "displayTimeUnit still present"
          (Some (Json.Str "ms"))
          (Json.member "displayTimeUnit" reparsed));
    Tu.case "adversarial and unicode span names survive export" (fun () ->
        (* Quotes, backslashes, control characters, multi-byte UTF-8 —
           everything the JSON escaper has to get right for Perfetto to
           load the file at all. *)
        let names =
          [
            "quote\"backslash\\slash/";
            "newline\ntab\tcr\r";
            "ctrl\x01\x1f";
            "sn\xc3\xa5pshot \xe2\x9c\x93 \xf0\x9f\x94\xa5";
            "le=\"+Inf\"},{\"fake\":1";
          ]
        in
        let spans =
          List.mapi
            (fun i name ->
              {
                Obs.Span.id = i;
                parent = None;
                name;
                tid = 0;
                start = 1000.0 +. float_of_int i;
                dur = 0.5;
                meta = [];
              })
            names
        in
        let trace = Perfetto.of_spans ~process_name:"adversarial" spans in
        let reparsed =
          match Json.of_string (Json.to_string trace) with
          | Ok j -> j
          | Error e -> Alcotest.failf "adversarial trace does not round-trip: %s" e
        in
        let slices = span_names reparsed in
        Alcotest.(check int) "one slice per span" (List.length names) (List.length slices);
        List.iter
          (fun n ->
            Alcotest.(check bool)
              (Printf.sprintf "name %S survives" n)
              true (List.mem n slices))
          names);
    Tu.case "over a thousand spans round-trip through the collector" (fun () ->
        let n = 1200 in
        let c = Perfetto.Collector.start () in
        for i = 0 to n - 1 do
          Obs.Span.with_ ~name:(Printf.sprintf "bulk_%04d" i) (fun () -> ())
        done;
        let trace = Perfetto.Collector.stop c in
        Alcotest.(check int) "nothing dropped" 0 (Perfetto.Collector.dropped c);
        let reparsed =
          match Json.of_string (Json.to_string trace) with
          | Ok j -> j
          | Error e -> Alcotest.failf "bulk trace does not round-trip: %s" e
        in
        let slices = List.filter (fun s -> String.length s >= 5 && String.sub s 0 5 = "bulk_") (span_names reparsed) in
        Alcotest.(check int) "all slices present" n (List.length slices);
        Alcotest.(check int) "no duplicates" n
          (List.length (List.sort_uniq compare slices)));
  ]

let progress_tests =
  [
    Tu.case "on_progress ramps 0..total exactly once per failure point" (fun () ->
        let seen = ref [] in
        let o =
          Engine.detect ~on_progress:(fun p -> seen := p :: !seen) (program ())
        in
        let ps = List.rev !seen in
        Alcotest.(check bool) "total is the failure-point count" true
          (List.for_all (fun p -> p.Engine.total = o.Engine.failure_points) ps);
        Alcotest.(check (list int))
          "sequential runs report every step in order"
          (List.init (o.Engine.failure_points + 1) Fun.id)
          (List.map (fun p -> p.Engine.completed) ps));
    Tu.case "a raising callback is swallowed and verdict-neutral" (fun () ->
        let quiet = Tu.detect (program ()) in
        let noisy =
          Engine.detect ~on_progress:(fun _ -> failwith "boom") (program ())
        in
        Alcotest.(check bool) "identical findings" true
          (fingerprint quiet = fingerprint noisy));
    Tu.case "detect_guided threads progress through" (fun () ->
        let last = ref None in
        let _, o =
          Xfd_lint.Lint.detect_guided
            ~on_progress:(fun p -> last := Some p)
            (program ())
        in
        match !last with
        | Some p ->
          Alcotest.(check int) "finishes complete" o.Engine.failure_points p.Engine.completed;
          Alcotest.(check int) "with the right total" o.Engine.failure_points p.Engine.total
        | None -> Alcotest.fail "no progress reported");
    Tu.case "full observability leaves the verdict byte-identical" (fun () ->
        let off = Tu.detect (program ()) in
        let lvl0 = Flight.level () in
        let collector = Perfetto.Collector.start () in
        let on =
          Fun.protect
            ~finally:(fun () ->
              Flight.set_level lvl0;
              ignore (Perfetto.Collector.stop collector))
            (fun () ->
              Flight.set_level Flight.Debug;
              Engine.detect ~on_progress:(fun _ -> ()) (program ()))
        in
        Alcotest.(check bool) "identical findings" true (fingerprint off = fingerprint on));
  ]

(* A miniature BENCH document; every leaf name exercises one class. *)
let bench ~count ~bytes ~wall ~rate =
  Json.Obj
    [
      ("type", Json.Str "BENCH_x");
      ( "rows",
        Json.Arr
          [
            Json.Obj
              [
                ("workload", Json.Str "w");
                ("event_count", Json.Int count);
                ("peak_bytes", Json.Int bytes);
                ("wall_s", Json.Float wall);
                ("points_per_sec", Json.Float rate);
              ];
          ] );
    ]

let diff_exn ?tol ~baseline ~current () =
  match Bdiff.diff ?tol ~baseline ~current () with
  | Ok items -> items
  | Error e -> Alcotest.failf "unexpected structural mismatch: %s" e

let regressed items = List.length (Bdiff.regressions items)

let bdiff_tests =
  [
    Tu.case "metric classes derive from the leaf name" (fun () ->
        Alcotest.(check bool) "bytes" true (Bdiff.classify "peak_image_bytes" = Bdiff.Bytes);
        Alcotest.(check bool) "wall" true (Bdiff.classify "wall_s" = Bdiff.Wall);
        Alcotest.(check bool) "rate" true (Bdiff.classify "points_per_sec" = Bdiff.Rate);
        Alcotest.(check bool) "exact" true (Bdiff.classify "failure_points" = Bdiff.Exact));
    Tu.case "self-comparison is clean" (fun () ->
        let d = bench ~count:100 ~bytes:4096 ~wall:1.0 ~rate:50.0 in
        let items = diff_exn ~baseline:d ~current:d () in
        Alcotest.(check int) "all metrics compared" 4 (List.length items);
        Alcotest.(check int) "no regression" 0 (regressed items));
    Tu.case "exact metrics fail on any drift, either direction" (fun () ->
        let b = bench ~count:100 ~bytes:4096 ~wall:1.0 ~rate:50.0 in
        let up = bench ~count:101 ~bytes:4096 ~wall:1.0 ~rate:50.0 in
        let down = bench ~count:99 ~bytes:4096 ~wall:1.0 ~rate:50.0 in
        Alcotest.(check int) "+1 regresses" 1 (regressed (diff_exn ~baseline:b ~current:up ()));
        Alcotest.(check int) "-1 regresses too" 1
          (regressed (diff_exn ~baseline:b ~current:down ())));
    Tu.case "byte metrics tolerate +25% and only gate the regression direction" (fun () ->
        let b = bench ~count:1 ~bytes:1000 ~wall:1.0 ~rate:1.0 in
        let within = bench ~count:1 ~bytes:1200 ~wall:1.0 ~rate:1.0 in
        let beyond = bench ~count:1 ~bytes:1300 ~wall:1.0 ~rate:1.0 in
        let improved = bench ~count:1 ~bytes:500 ~wall:1.0 ~rate:1.0 in
        Alcotest.(check int) "+20% passes" 0
          (regressed (diff_exn ~baseline:b ~current:within ()));
        Alcotest.(check int) "+30% fails" 1
          (regressed (diff_exn ~baseline:b ~current:beyond ()));
        let items = diff_exn ~baseline:b ~current:improved () in
        Alcotest.(check int) "halving is not a failure" 0 (regressed items);
        Alcotest.(check bool) "and is flagged as improvement" true
          (List.exists
             (fun i -> i.Bdiff.cls = Bdiff.Bytes && i.Bdiff.verdict = Bdiff.Improved)
             items));
    Tu.case "wall and rate gate only with an explicit tolerance" (fun () ->
        let b = bench ~count:1 ~bytes:1 ~wall:1.0 ~rate:100.0 in
        let slow = bench ~count:1 ~bytes:1 ~wall:3.0 ~rate:20.0 in
        Alcotest.(check int) "not gated by default" 0
          (regressed (diff_exn ~baseline:b ~current:slow ()));
        let tol = { Bdiff.default_tolerances with wall = Some 0.5; rate = Some 0.5 } in
        Alcotest.(check int) "gated when asked" 2
          (regressed (diff_exn ~tol ~baseline:b ~current:slow ())));
    Tu.case "structural mismatch is an error, not a regression" (fun () ->
        let b = bench ~count:1 ~bytes:1 ~wall:1.0 ~rate:1.0 in
        let renamed =
          match b with
          | Json.Obj [ t; (_, rows) ] -> Json.Obj [ t; ("results", rows) ]
          | _ -> assert false
        in
        (match Bdiff.diff ~baseline:b ~current:renamed () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "field rename must be a structural error");
        let two_rows =
          match b with
          | Json.Obj [ t; (k, Json.Arr [ row ]) ] -> Json.Obj [ t; (k, Json.Arr [ row; row ]) ]
          | _ -> assert false
        in
        (match Bdiff.diff ~baseline:b ~current:two_rows () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "row-count change must be a structural error");
        match
          Bdiff.diff ~baseline:(Json.Str "B-Tree") ~current:(Json.Str "C-Tree") ()
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "string drift must be a structural error");
    Tu.case "the committed baseline self-compares clean" (fun () ->
        (* The in-repo BENCH files must always be diffable against
           themselves: schema drift would break the CI gate silently. *)
        List.iter
          (fun file ->
            let path = Filename.concat ".." file in
            match
              In_channel.with_open_bin path In_channel.input_all |> Json.of_string
            with
            | exception Sys_error _ ->
              Alcotest.failf "committed baseline %s missing" file
            | Error e -> Alcotest.failf "%s unparseable: %s" file e
            | Ok doc ->
              let items = diff_exn ~baseline:doc ~current:doc () in
              Alcotest.(check bool) (file ^ " has metrics") true (items <> []);
              Alcotest.(check int) (file ^ " self-clean") 0 (regressed items))
          [ "BENCH_detect.json"; "BENCH_snapshots.json" ]);
    Tu.case "bench_diff.exe exits 3 on missing or unparseable input" (fun () ->
        (* Exit codes are the comparator's CI contract: 0 clean, 1
           regression, 2 structural/usage, 3 unreadable input.  A missing
           baseline (bench step never ran) must be distinguishable from
           two well-formed files that disagree. *)
        let exe = Filename.concat ".." "bench/bench_diff.exe" in
        let run args = Sys.command (Filename.quote_command exe args ^ " >/dev/null 2>&1") in
        Alcotest.(check int) "missing baseline exits 3" 3
          (run [ "/nonexistent-xfd-baseline.json"; Filename.concat ".." "BENCH_detect.json" ]);
        let bad = Filename.temp_file "xfd_badbench" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove bad)
          (fun () ->
            Out_channel.with_open_text bad (fun oc -> output_string oc "not json {\n");
            Alcotest.(check int) "unparseable baseline exits 3" 3
              (run [ bad; Filename.concat ".." "BENCH_detect.json" ]));
        Alcotest.(check int) "structural mismatch still exits 2" 2
          (run
             [ Filename.concat ".." "BENCH_detect.json";
               Filename.concat ".." "BENCH_snapshots.json" ]);
        Alcotest.(check int) "self-comparison still exits 0" 0
          (run
             [ Filename.concat ".." "BENCH_detect.json";
               Filename.concat ".." "BENCH_detect.json" ]));
  ]

let suite =
  [
    ("flight.recorder", recorder_tests);
    ("flight.perfetto", perfetto_tests);
    ("flight.progress", progress_tests);
    ("flight.bdiff", bdiff_tests);
  ]
