(* The pulse layer: ticker, time-series recorder, OpenMetrics encoder,
   the HTTP exposition server, the dashboard — and the acceptance
   guarantee that a fully pulsed detection run (sampler + server + live
   progress) produces a byte-identical verdict. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json
module Engine = Xfd.Engine
module Flight = Xfd_flight.Flight
module Ticker = Xfd_pulse.Ticker
module Tsdb = Xfd_pulse.Tsdb
module Openmetrics = Xfd_pulse.Openmetrics
module Httpd = Xfd_pulse.Httpd
module Httpc = Xfd_pulse.Httpc
module Pulse = Xfd_pulse.Pulse
module Dash = Xfd_pulse.Dash
module Session = Xfd_pulse.Session

(* A workload with a healthy number of failure points, so a fast sampler
   gets several sweeps mid-run. *)
let program () = Xfd_workloads.Btree.program ~init_size:2 ~size:3 ()

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

let host = "127.0.0.1"

let get_ok ~port path =
  match Httpc.get ~host ~port path with
  | Ok (status, body) -> (status, body)
  | Error e -> Alcotest.failf "GET %s failed: %s" path e

let parse_json body =
  match Json.of_string body with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad JSON: %s (in %s)" e body

let jstr key j =
  match Json.member key j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %s" key

(* A permissive OpenMetrics line checker: every line is either a # TYPE
   comment, the # EOF terminator, or `name[{labels}] value` with the
   metric-name alphabet. *)
let check_openmetrics body =
  let lines = String.split_on_char '\n' body in
  let lines = match List.rev lines with "" :: r -> List.rev r | _ -> lines in
  (match List.rev lines with
  | "# EOF" :: _ -> ()
  | _ -> Alcotest.fail "exposition does not end with # EOF");
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        let is_type = String.length line > 7 && String.sub line 0 7 = "# TYPE " in
        let is_eof = line = "# EOF" in
        if not (is_type || is_eof) then Alcotest.failf "unexpected comment line %S" line
      end
      else begin
        match String.index_opt line ' ' with
        | None -> Alcotest.failf "sample line without value: %S" line
        | Some i ->
          let name_part = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          let name_ok =
            String.for_all
              (fun c ->
                match c with
                | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
                | '{' | '}' | '=' | '"' | '+' | '.' | ',' -> true (* labels *)
                | _ -> false)
              name_part
          in
          if not name_ok then Alcotest.failf "bad metric name in %S" line;
          if float_of_string_opt value = None then
            Alcotest.failf "non-numeric sample value in %S" line
      end)
    lines

let ticker_tests =
  [
    Tu.case "foreground loop runs until the callback stops it" (fun () ->
        let seen = ref [] in
        let n =
          Ticker.loop ~interval:0.001 (fun tick ->
              seen := tick :: !seen;
              if tick >= 4 then `Stop else `Continue)
        in
        Alcotest.(check int) "returns the tick count" 5 n;
        Alcotest.(check (list int)) "ticks in order" [ 0; 1; 2; 3; 4 ] (List.rev !seen));
    Tu.case "background ticker fires and stops promptly" (fun () ->
        let count = Atomic.make 0 in
        let t = Ticker.start ~interval:0.005 (fun () -> Atomic.incr count) in
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Atomic.get count < 2 && Unix.gettimeofday () < deadline do
          Thread.yield ();
          Unix.sleepf 0.002
        done;
        Alcotest.(check bool) "ticked at least twice" true (Atomic.get count >= 2);
        let t0 = Unix.gettimeofday () in
        Ticker.stop t;
        Alcotest.(check bool) "stop returns promptly" true (Unix.gettimeofday () -. t0 < 2.0);
        let frozen = Atomic.get count in
        Unix.sleepf 0.03;
        Alcotest.(check int) "no ticks after stop" frozen (Atomic.get count);
        Ticker.stop t (* idempotent *));
  ]

let tsdb_tests =
  [
    Tu.case "sample captures counters, gauges and histogram derivatives" (fun () ->
        let c = Obs.Counter.make "test.pulse.tsdb_c" in
        let g = Obs.Gauge.make "test.pulse.tsdb_g" in
        let h = Obs.Histogram.make "test.pulse.tsdb_h" in
        Obs.Counter.add c 7;
        Obs.Gauge.set g 2.5;
        List.iter (Obs.Histogram.observe h) [ 1; 2; 3; 4 ];
        let t = Tsdb.create () in
        Tsdb.sample t;
        let names = Tsdb.names t in
        List.iter
          (fun n -> Alcotest.(check bool) (n ^ " recorded") true (List.mem n names))
          [
            "test.pulse.tsdb_c";
            "test.pulse.tsdb_g";
            "test.pulse.tsdb_h.count";
            "test.pulse.tsdb_h.sum";
            "test.pulse.tsdb_h.max";
            "test.pulse.tsdb_h.p50";
            "test.pulse.tsdb_h.p95";
            "test.pulse.tsdb_h.p99";
          ];
        (match Tsdb.window t "test.pulse.tsdb_g" with
        | Some [ p ] -> Alcotest.(check (float 0.0)) "gauge value" 2.5 p.Tsdb.value
        | _ -> Alcotest.fail "expected exactly one gauge point");
        match Tsdb.window t "test.pulse.tsdb_h.count" with
        | Some [ p ] -> Alcotest.(check (float 0.0)) "hist count" 4.0 p.Tsdb.value
        | _ -> Alcotest.fail "expected exactly one hist.count point");
    Tu.case "the ring keeps the newest capacity points and counts drops" (fun () ->
        let g = Obs.Gauge.make "test.pulse.tsdb_ring" in
        let t = Tsdb.create ~capacity:4 () in
        let dropped0 = Option.value ~default:0 (Obs.counter_value "pulse.points_dropped") in
        for i = 1 to 6 do
          Obs.Gauge.set g (float_of_int i);
          Tsdb.sample t
        done;
        (match Tsdb.window t "test.pulse.tsdb_ring" with
        | Some pts ->
          Alcotest.(check (list (float 0.0)))
            "newest 4, oldest first" [ 3.0; 4.0; 5.0; 6.0 ]
            (List.map (fun p -> p.Tsdb.value) pts);
          Alcotest.(check bool) "timestamps nondecreasing" true
            (let rec mono = function
               | a :: (b :: _ as rest) -> a.Tsdb.at <= b.Tsdb.at && mono rest
               | _ -> true
             in
             mono pts)
        | None -> Alcotest.fail "series missing");
        (match Tsdb.window t ~last:2 "test.pulse.tsdb_ring" with
        | Some pts ->
          Alcotest.(check (list (float 0.0)))
            "last=2 keeps the newest two" [ 5.0; 6.0 ]
            (List.map (fun p -> p.Tsdb.value) pts)
        | None -> Alcotest.fail "series missing");
        let dropped = Option.value ~default:0 (Obs.counter_value "pulse.points_dropped") in
        Alcotest.(check bool) "overwrites counted" true (dropped > dropped0);
        Alcotest.(check int) "six sweeps" 6 (Tsdb.samples t));
    Tu.case "unknown series are None, not empty" (fun () ->
        let t = Tsdb.create () in
        Alcotest.(check bool) "window" true (Tsdb.window t "no.such.series" = None);
        Alcotest.(check bool) "series_json" true (Tsdb.series_json t "no.such.series" = None));
    Tu.case "JSONL and CSV exports round-trip" (fun () ->
        let g = Obs.Gauge.make "test.pulse.tsdb_export" in
        let t = Tsdb.create () in
        Obs.Gauge.set g 1.0;
        Tsdb.sample t;
        Obs.Gauge.set g 2.0;
        Tsdb.sample t;
        let jsonl = Filename.temp_file "xfd_tsdb" ".jsonl" in
        let csv = Filename.temp_file "xfd_tsdb" ".csv" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove jsonl;
            Sys.remove csv)
          (fun () ->
            let nseries = Tsdb.write_jsonl t jsonl in
            Alcotest.(check int) "series written = names" (List.length (Tsdb.names t)) nseries;
            let lines =
              In_channel.with_open_text jsonl In_channel.input_all
              |> String.split_on_char '\n'
              |> List.filter (fun l -> l <> "")
            in
            Alcotest.(check int) "one line per series" nseries (List.length lines);
            List.iter
              (fun line ->
                let j = parse_json line in
                Alcotest.(check string) "typed" "tsdb" (jstr "type" j);
                match Json.member "points" j with
                | Some (Json.Arr (_ :: _)) -> ()
                | _ -> Alcotest.failf "series %s has no points" (jstr "name" j))
              lines;
            let rows = Tsdb.write_csv t csv in
            let csv_lines =
              In_channel.with_open_text csv In_channel.input_all
              |> String.split_on_char '\n'
              |> List.filter (fun l -> l <> "")
            in
            (match csv_lines with
            | header :: data ->
              Alcotest.(check string) "header" "series,unix_s,value" header;
              Alcotest.(check int) "row count returned" (List.length data) rows
            | [] -> Alcotest.fail "empty csv");
            Alcotest.(check bool) "our series has 2 rows" true
              (List.length
                 (List.filter
                    (fun l ->
                      String.length l > 22 && String.sub l 0 22 = "test.pulse.tsdb_export")
                    csv_lines)
              = 2)));
    Tu.case "the background sampler sweeps on its own" (fun () ->
        let t = Tsdb.create () in
        Tsdb.start t ~interval:0.003;
        Alcotest.(check bool) "running" true (Tsdb.running t);
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Tsdb.samples t < 3 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.002
        done;
        Tsdb.stop t;
        Alcotest.(check bool) "stopped" false (Tsdb.running t);
        Alcotest.(check bool) "swept at least thrice" true (Tsdb.samples t >= 3);
        Alcotest.(check (option (float 0.0))) "interval kept as metadata" (Some 0.003)
          (Tsdb.interval t));
  ]

let openmetrics_tests =
  [
    Tu.case "names are sanitised and prefixed" (fun () ->
        Alcotest.(check string) "dots" "xfd_pm_flushes"
          (Openmetrics.metric_name ~prefix:"xfd_" "pm.flushes");
        Alcotest.(check string) "hostile chars" "xfd_a_b_c_d"
          (Openmetrics.metric_name ~prefix:"xfd_" "a-b/c d");
        Alcotest.(check string) "digits kept when not leading" "xfd_p99"
          (Openmetrics.metric_name ~prefix:"xfd_" "p99"));
    Tu.case "render is well-formed OpenMetrics with counter/gauge/histogram" (fun () ->
        let c = Obs.Counter.make "test.pulse.om_c" in
        let g = Obs.Gauge.make "test.pulse.om_g" in
        let h = Obs.Histogram.make "test.pulse.om_h" in
        Obs.Counter.add c 3;
        Obs.Gauge.set g 1.5;
        List.iter (Obs.Histogram.observe h) [ 1; 2; 200 ];
        let body = Openmetrics.render () in
        check_openmetrics body;
        let has s =
          let n = String.length s and m = String.length body in
          let rec go i = i + n <= m && (String.sub body i n = s || go (i + 1)) in
          Alcotest.(check bool) (Printf.sprintf "contains %S" s) true (go 0)
        in
        has "# TYPE xfd_test_pulse_om_c counter\nxfd_test_pulse_om_c_total ";
        has "# TYPE xfd_test_pulse_om_g gauge\nxfd_test_pulse_om_g 1.5";
        has "# TYPE xfd_test_pulse_om_h histogram\n";
        (* buckets are cumulative: le 1 -> 1 sample, le 3 -> 2, +Inf = 3 *)
        has "xfd_test_pulse_om_h_bucket{le=\"1\"} 1";
        has "xfd_test_pulse_om_h_bucket{le=\"3\"} 2";
        has "xfd_test_pulse_om_h_bucket{le=\"+Inf\"} 3";
        has "xfd_test_pulse_om_h_sum 203";
        has "xfd_test_pulse_om_h_count 3";
        has "# TYPE xfd_test_pulse_om_h_p50 gauge";
        has "# TYPE xfd_test_pulse_om_h_p99 gauge");
  ]

(* Raw request helper for wire shapes Httpc does not speak.  [shutdown]
   half-closes the write side after sending — how a client that died
   mid-body looks to the server. *)
let raw_request ?(shutdown = false) ~port req =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      let b = Bytes.of_string req in
      ignore (Unix.write fd b 0 (Bytes.length b));
      if shutdown then Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 1024 in
      (* A server that rejects early (e.g. 431) closes with our request
         partly unread; the resulting RST after the response is fine. *)
      let rec go () =
        match Unix.read fd chunk 0 1024 with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      go ();
      Buffer.contents buf)

let httpd_tests =
  [
    Tu.case "serves handlers on an ephemeral port with query decoding" (fun () ->
        let seen = ref None in
        let srv =
          Httpd.start ~port:0 (fun req ->
              match req.Httpd.path with
              | "/echo" ->
                seen := Some req.Httpd.query;
                Httpd.text 200 "ok"
              | "/boom" -> failwith "handler exploded"
              | _ -> Httpd.not_found)
        in
        Fun.protect
          ~finally:(fun () -> Httpd.stop srv)
          (fun () ->
            let port = Httpd.port srv in
            Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
            let status, body = get_ok ~port "/echo?a=1&msg=hello%20world&flag" in
            Alcotest.(check int) "200" 200 status;
            Alcotest.(check string) "body" "ok" body;
            Alcotest.(check
                        (option (list (pair string string))))
              "query decoded"
              (Some [ ("a", "1"); ("msg", "hello world"); ("flag", "") ])
              !seen;
            let status, _ = get_ok ~port "/missing" in
            Alcotest.(check int) "404" 404 status;
            let status, _ = get_ok ~port "/boom" in
            Alcotest.(check int) "handler exception is a 500" 500 status;
            let resp = raw_request ~port "POST /echo HTTP/1.1\r\nHost: x\r\n\r\n" in
            Alcotest.(check bool) "POST is 405" true
              (String.length resp >= 12 && String.sub resp 9 3 = "405");
            let has_allow =
              let s = "Allow: GET, HEAD" in
              let n = String.length s and m = String.length resp in
              let rec go i = i + n <= m && (String.sub resp i n = s || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "405 carries Allow: GET, HEAD" true has_allow;
            let resp = raw_request ~port "HEAD /echo HTTP/1.1\r\nHost: x\r\n\r\n" in
            Alcotest.(check bool) "HEAD has no body" true
              (String.sub resp 9 3 = "200"
              &&
              let n = String.length resp in
              String.sub resp (n - 4) 4 = "\r\n\r\n")));
    Tu.case "POST bodies: echo within cap, 411/413/431/400 outside it" (fun () ->
        let srv =
          Httpd.start ~port:0
            ~allowed_methods:[ "GET"; "HEAD"; "POST" ]
            ~max_body_bytes:64
            (fun req ->
              if req.Httpd.path = "/echo" then Httpd.text 200 req.Httpd.body
              else Httpd.not_found)
        in
        Fun.protect
          ~finally:(fun () -> Httpd.stop srv)
          (fun () ->
            let port = Httpd.port srv in
            let status_of resp = String.sub resp 9 3 in
            let resp =
              raw_request ~port
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
            in
            Alcotest.(check string) "within cap is 200" "200" (status_of resp);
            let n = String.length resp in
            Alcotest.(check string) "body echoed back" "hello" (String.sub resp (n - 5) 5);
            let resp = raw_request ~port "POST /echo HTTP/1.1\r\nHost: x\r\n\r\n" in
            Alcotest.(check string) "POST without Content-Length is 411" "411"
              (status_of resp);
            let resp =
              raw_request ~port
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 65\r\n\r\n"
            in
            Alcotest.(check string) "body over cap is 413" "413" (status_of resp);
            let resp =
              raw_request ~port
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n"
            in
            Alcotest.(check string) "bad Content-Length is 400" "400" (status_of resp);
            let resp =
              raw_request ~shutdown:true ~port
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nhi"
            in
            Alcotest.(check string) "truncated body is 400" "400" (status_of resp);
            let resp =
              raw_request ~port
                (Printf.sprintf "GET /echo HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n\r\n"
                   (String.make 9000 'a'))
            in
            Alcotest.(check string) "oversized head is 431" "431" (status_of resp);
            let resp = raw_request ~port "DELETE /echo HTTP/1.1\r\nHost: x\r\n\r\n" in
            Alcotest.(check string) "DELETE is still 405" "405" (status_of resp)));
    Tu.case "stop closes the listener" (fun () ->
        let srv = Httpd.start ~port:0 (fun _ -> Httpd.text 200 "up") in
        let port = Httpd.port srv in
        (match Httpc.get ~host ~port "/" with
        | Ok (200, "up") -> ()
        | Ok (s, b) -> Alcotest.failf "unexpected %d %S" s b
        | Error e -> Alcotest.failf "server not serving: %s" e);
        Httpd.stop srv;
        Httpd.stop srv;
        (* idempotent *)
        match Httpc.get ~host ~port "/" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "stopped server still answering");
    Tu.case "endpoint parsing accepts HOST:PORT and bare PORT" (fun () ->
        Alcotest.(check bool) "bare port" true
          (Httpc.parse_endpoint "8080" = Ok ("127.0.0.1", 8080));
        Alcotest.(check bool) "host:port" true
          (Httpc.parse_endpoint "10.0.0.7:90" = Ok ("10.0.0.7", 90));
        let is_err = function Error _ -> true | Ok _ -> false in
        Alcotest.(check bool) "garbage" true (is_err (Httpc.parse_endpoint "wat"));
        Alcotest.(check bool) "empty host" true (is_err (Httpc.parse_endpoint ":5"));
        Alcotest.(check bool) "port 0" true (is_err (Httpc.parse_endpoint "1.2.3.4:0")));
  ]

(* Run [f] with the flight ring cleared, restoring level and clearing
   again afterwards — route tests derive lifecycle from the ring. *)
let with_flight f =
  let lvl0 = Flight.level () and en0 = Flight.enabled () in
  Flight.set_enabled true;
  Flight.clear ();
  Fun.protect
    ~finally:(fun () ->
      Flight.set_level lvl0;
      Flight.set_enabled en0;
      Flight.clear ())
    f

let route_tests =
  [
    Tu.case "routes serve metrics, health, series, flight and summary" (fun () ->
        let tsdb = Tsdb.create () in
        Tsdb.sample tsdb;
        let handle path =
          Pulse.handler tsdb { Httpd.meth = "GET"; path; query = []; headers = []; body = "" }
        in
        let metrics = handle "/metrics" in
        Alcotest.(check int) "/metrics 200" 200 metrics.Httpd.status;
        Alcotest.(check string) "openmetrics content type" Openmetrics.content_type
          metrics.Httpd.content_type;
        check_openmetrics metrics.Httpd.body;
        let health = handle "/health" in
        Alcotest.(check int) "/health 200" 200 health.Httpd.status;
        let hj = parse_json health.Httpd.body in
        Alcotest.(check bool) "health has a status" true
          (List.mem (jstr "status" hj) [ "idle"; "running"; "done" ]);
        let index = handle "/series" in
        let ij = parse_json index.Httpd.body in
        (match Json.member "series" ij with
        | Some (Json.Arr (_ :: _)) -> ()
        | _ -> Alcotest.fail "/series index empty");
        let one =
          Pulse.handler tsdb
            {
              Httpd.meth = "GET";
              path = "/series";
              query = [ ("name", "pulse.samples"); ("last", "1") ];
              headers = [];
              body = "";
            }
        in
        let oj = parse_json one.Httpd.body in
        Alcotest.(check string) "series name echoes" "pulse.samples" (jstr "name" oj);
        let missing =
          Pulse.handler tsdb
            {
              Httpd.meth = "GET";
              path = "/series";
              query = [ ("name", "nope") ];
              headers = [];
              body = "";
            }
        in
        Alcotest.(check int) "unknown series 404" 404 missing.Httpd.status;
        let flight = handle "/flight" in
        Alcotest.(check int) "/flight 200" 200 flight.Httpd.status;
        let summary = handle "/summary" in
        ignore (parse_json summary.Httpd.body);
        Alcotest.(check int) "unknown route 404" 404 (handle "/nope").Httpd.status);
    Tu.case "ready follows the flight-recorder lifecycle" (fun () ->
        with_flight (fun () ->
            let tsdb = Tsdb.create () in
            let handle path =
              Pulse.handler tsdb { Httpd.meth = "GET"; path; query = []; headers = []; body = "" }
            in
            Alcotest.(check int) "idle is 503" 503 (handle "/ready").Httpd.status;
            Alcotest.(check bool) "status idle" true (Pulse.status () = Pulse.Idle);
            let run = Flight.begin_run ~program:"pulse-test" in
            Alcotest.(check int) "running is 200" 200 (handle "/ready").Httpd.status;
            Alcotest.(check bool) "status running" true (Pulse.status () = Pulse.Running);
            Flight.end_run ~run [];
            Alcotest.(check int) "done is 200" 200 (handle "/ready").Httpd.status;
            Alcotest.(check bool) "status done" true (Pulse.status () = Pulse.Done);
            let hj = parse_json (handle "/health").Httpd.body in
            Alcotest.(check string) "health agrees" "done" (jstr "status" hj)));
  ]

let dash_tests =
  [
    Tu.case "sparkline scales deltas of a cumulative series" (fun () ->
        Alcotest.(check string) "empty" "" (Dash.sparkline []);
        Alcotest.(check string) "single point" "" (Dash.sparkline [ (0.0, 5.0) ]);
        Alcotest.(check string) "flat is all-low" "\xe2\x96\x81\xe2\x96\x81"
          (Dash.sparkline [ (0.0, 5.0); (1.0, 5.0); (2.0, 5.0) ]);
        Alcotest.(check string) "steady growth is all-high" "\xe2\x96\x88\xe2\x96\x88"
          (Dash.sparkline [ (0.0, 0.0); (1.0, 3.0); (2.0, 6.0) ]));
    Tu.case "render shows progress, bugs and PM traffic" (fun () ->
        let snap =
          {
            Dash.at = 0.0;
            status = "running";
            run = "run-test-1";
            completed = 5;
            total = 10;
            fp_fired = 5;
            unique_bugs = 2;
            bug_race = 1;
            bug_semantic = 1;
            bug_perf = 0;
            pm_store_bytes = 2048;
            pm_flushes = 17;
            pm_fences = 9;
            pm_snapshot_bytes = 0;
            pm_live_bytes = 0.0;
            samples = 3;
            spark = [ (0.0, 0.0); (1.0, 5.0) ];
          }
        in
        let out = Dash.render snap in
        List.iter
          (fun needle ->
            let n = String.length needle and m = String.length out in
            let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
            Alcotest.(check bool) (Printf.sprintf "render contains %S" needle) true (go 0))
          [ "running"; "run-test-1"; "5/10"; "(50%)"; "2 unique"; "race 1"; "flushes 17"; "2.0 KiB" ]);
  ]

let acceptance_tests =
  [
    Tu.case "a fully pulsed run serves live state and is verdict-neutral" (fun () ->
        let off = Tu.detect (program ()) in
        let tsdb = Tsdb.create () in
        Tsdb.start tsdb ~interval:0.002;
        let srv = Pulse.start ~tsdb () in
        let port = Pulse.port srv in
        let mid = ref None in
        let on_progress (p : Engine.progress) =
          Pulse.note_progress ~completed:p.completed ~total:p.total;
          (* Half-way through the post-failure stage the run is live:
             scrape from inside the callback, which is mid-detect by
             construction — no timing race. *)
          if !mid = None && p.completed > 0 && p.completed >= (p.total + 1) / 2 then
            mid :=
              Some
                ( Httpc.get ~host ~port "/health",
                  Httpc.get ~host ~port "/metrics",
                  Httpc.get ~host ~port "/ready" )
        in
        let on = Engine.detect ~on_progress (program ()) in
        Tsdb.sample tsdb;
        let end_health = get_ok ~port "/health" in
        let samples = Tsdb.samples tsdb in
        Tsdb.stop tsdb;
        Pulse.stop srv;
        (* Verdict neutrality: byte-identical findings. *)
        Alcotest.(check bool) "identical findings with and without pulse" true
          (fingerprint off = fingerprint on);
        (* The sampler saw the run happen. *)
        Alcotest.(check bool)
          (Printf.sprintf "sampler swept >= 2 times (got %d)" samples)
          true (samples >= 2);
        (* Mid-run scrape. *)
        (match !mid with
        | None -> Alcotest.fail "progress callback never reached the half-way point"
        | Some (health, metrics, ready) ->
          (match health with
          | Ok (200, body) ->
            let hj = parse_json body in
            Alcotest.(check string) "mid-run status is running" "running" (jstr "status" hj);
            (match Json.member "completed" hj with
            | Some (Json.Int c) -> Alcotest.(check bool) "progress visible" true (c > 0)
            | _ -> Alcotest.fail "health lacks completed")
          | Ok (s, _) -> Alcotest.failf "mid-run /health returned %d" s
          | Error e -> Alcotest.failf "mid-run /health failed: %s" e);
          (match metrics with
          | Ok (200, body) ->
            check_openmetrics body;
            let needle = "xfd_engine_failure_points_fired_total" in
            let n = String.length needle and m = String.length body in
            let rec go i = i + n <= m && (String.sub body i n = needle || go (i + 1)) in
            Alcotest.(check bool) "engine counters exposed" true (go 0)
          | Ok (s, _) -> Alcotest.failf "mid-run /metrics returned %d" s
          | Error e -> Alcotest.failf "mid-run /metrics failed: %s" e);
          match ready with
          | Ok (200, _) -> ()
          | Ok (s, _) -> Alcotest.failf "mid-run /ready returned %d" s
          | Error e -> Alcotest.failf "mid-run /ready failed: %s" e);
        (* After the run the endpoint reports done. *)
        let status, body = end_health in
        Alcotest.(check int) "post-run /health 200" 200 status;
        Alcotest.(check string) "post-run status is done" "done"
          (jstr "status" (parse_json body));
        (* The window actually captured the fired counter moving. *)
        match Tsdb.window tsdb "engine.failure_points.fired" with
        | None -> Alcotest.fail "fired series never sampled"
        | Some pts ->
          let vs = List.map (fun p -> p.Tsdb.value) pts in
          Alcotest.(check bool) "fired series is nondecreasing" true
            (let rec mono = function
               | a :: (b :: _ as rest) -> a <= b && mono rest
               | _ -> true
             in
             mono vs));
    Tu.case "snap_remote mirrors snap_local through the HTTP surface" (fun () ->
        let tsdb = Tsdb.create () in
        Tsdb.sample tsdb;
        let srv = Pulse.start ~tsdb () in
        Fun.protect
          ~finally:(fun () -> Pulse.stop srv)
          (fun () ->
            let local = Dash.snap_local tsdb in
            match Dash.snap_remote ~host ~port:(Pulse.port srv) with
            | Error e -> Alcotest.failf "snap_remote failed: %s" e
            | Ok remote ->
              Alcotest.(check string) "status agrees" local.Dash.status remote.Dash.status;
              Alcotest.(check int) "fired agrees" local.Dash.fp_fired remote.Dash.fp_fired;
              Alcotest.(check int) "bugs agree" local.Dash.unique_bugs remote.Dash.unique_bugs;
              Alcotest.(check bool) "render works on a remote snap" true
                (String.length (Dash.render remote) > 0)));
  ]

let lines_of file = In_channel.with_open_text file In_channel.input_lines

let session_tests =
  [
    Tu.case "a session writes every file, also when its body raises" (fun () ->
        with_flight (fun () ->
            let tmp ext = Filename.temp_file "xfd_session" ext in
            let metrics = tmp ".jsonl" and trace = tmp ".json" in
            let flight = tmp ".jsonl" and series = tmp ".jsonl" in
            let sinks0 = Obs.Sink.active () in
            let off = Tu.detect (program ()) in
            let on = ref None in
            let opts =
              {
                Session.default with
                metrics_out = Some metrics;
                trace_out = Some trace;
                flight_out = Some flight;
                pulse_out = Some series;
                interval = 0.01;
              }
            in
            (match
               Session.with_ opts (fun s ->
                   let on_progress =
                     Option.map
                       (fun note (p : Engine.progress) ->
                         note ~completed:p.completed ~total:p.total)
                       (Session.progress s)
                   in
                   Alcotest.(check bool) "pulse_out starts the sampler" true
                     (on_progress <> None);
                   on := Some (Engine.detect ?on_progress (program ()));
                   raise Exit)
             with
            | () -> ()
            | exception Exit -> ());
            Alcotest.(check bool) "verdict-neutral" true
              (fingerprint off = fingerprint (Option.get !on));
            Alcotest.(check bool) "sinks uninstalled" sinks0 (Obs.Sink.active ());
            let records = List.map parse_json (lines_of metrics) in
            Alcotest.(check string) "metrics end with the summary" "summary"
              (jstr "type" (List.nth records (List.length records - 1)));
            (match Json.member "traceEvents" (parse_json (String.concat "\n" (lines_of trace))) with
            | Some (Json.Arr (_ :: _)) -> ()
            | _ -> Alcotest.fail "empty Perfetto trace");
            Alcotest.(check bool) "flight log written" true (lines_of flight <> []);
            Alcotest.(check bool) "series written" true (lines_of series <> []);
            List.iter Sys.remove [ metrics; trace; flight; series ]));
    Tu.case "the default session starts nothing; stop is idempotent" (fun () ->
        let s = Session.start Session.default in
        Alcotest.(check bool) "no progress hook" true (Session.progress s = None);
        Session.stop s;
        Session.stop s);
  ]

let suite =
  [
    ("pulse.ticker", ticker_tests);
    ("pulse.tsdb", tsdb_tests);
    ("pulse.openmetrics", openmetrics_tests);
    ("pulse.httpd", httpd_tests);
    ("pulse.routes", route_tests);
    ("pulse.dash", dash_tests);
    ("pulse.acceptance", acceptance_tests);
    ("pulse.session", session_tests);
  ]
