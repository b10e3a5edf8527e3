(* The terminal dashboard behind `xfd_cli top`.

   One [snap] is everything a human watching a long detection campaign
   wants at a glance: lifecycle, progress with an ETA, bug tallies, PM
   traffic, and a sparkline of failure-point throughput from the Tsdb
   window.  Snapshots come from two sources with one render path:
   {!snap_local} reads the in-process registry directly (the `run
   --pulse` live view), {!snap_remote} polls another process's pulse
   endpoint over HTTP (`top --connect`).  Rendering is pure
   string-building — the CLI decides how to paint it. *)

module Obs = Xfd_obs.Obs
module Flight = Xfd_flight.Flight
module Json = Xfd_util.Json

(* The cumulative series the sparkline and rate estimate are derived
   from: failure points fired is the engine's unit of forward progress. *)
let rate_series = "engine.failure_points.fired"
let spark_points = 40

type snap = {
  at : float;
  status : string;
  run : string;
  completed : int;
  total : int;
  fp_fired : int;
  unique_bugs : int;
  bug_race : int;
  bug_semantic : int;
  bug_perf : int;
  pm_store_bytes : int;
  pm_flushes : int;
  pm_fences : int;
  pm_snapshot_bytes : int;
  pm_live_bytes : float;
  samples : int;
  spark : (float * float) list;  (* (unix_s, cumulative fired) *)
}

(* ---- local source ---- *)

let counter name = Option.value ~default:0 (Obs.counter_value name)
let gauge name = Option.value ~default:0.0 (Obs.gauge_value name)

let snap_local tsdb =
  {
    at = Unix.gettimeofday ();
    status = Pulse.status_to_string (Pulse.status ());
    run = Flight.run_id ();
    completed = int_of_float (gauge "pulse.progress.completed");
    total = int_of_float (gauge "pulse.progress.total");
    fp_fired = counter rate_series;
    unique_bugs = counter "engine.unique_bugs";
    bug_race = counter "bugs.race";
    bug_semantic = counter "bugs.semantic";
    bug_perf = counter "bugs.perf";
    pm_store_bytes = counter "pm.store_bytes";
    pm_flushes = counter "pm.flushes";
    pm_fences = counter "pm.fences";
    pm_snapshot_bytes = counter "pm.snapshot_bytes";
    pm_live_bytes = gauge "pm.chunk_bytes_live";
    samples = Tsdb.samples tsdb;
    spark =
      (match Tsdb.window tsdb ~last:spark_points rate_series with
      | Some pts -> List.map (fun (p : Tsdb.point) -> (p.at, p.value)) pts
      | None -> []);
  }

(* ---- remote source ---- *)

let jint ?(default = 0) key j =
  match Json.member key j with
  | Some (Json.Int n) -> n
  | Some (Json.Float f) -> int_of_float f
  | _ -> default

let jstr ?(default = "?") key j =
  match Json.member key j with Some (Json.Str s) -> s | _ -> default

let jnum = function Json.Int n -> float_of_int n | Json.Float f -> f | _ -> 0.0

let get_json ~host ~port path =
  match Httpc.get ~host ~port path with
  | Error e -> Error e
  | Ok (status, body) when status = 200 -> (
    match Json.of_string body with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" path e))
  | Ok (status, _) -> Error (Printf.sprintf "%s: HTTP %d" path status)

let summary_counter summary name =
  match Json.member "counters" summary with
  | Some (Json.Obj kvs) -> ( match List.assoc_opt name kvs with
    | Some (Json.Int n) -> n
    | _ -> 0)
  | _ -> 0

let summary_gauge summary name =
  match Json.member "gauges" summary with
  | Some (Json.Obj kvs) -> ( match List.assoc_opt name kvs with
    | Some v -> jnum v
    | None -> 0.0)
  | _ -> 0.0

let snap_remote ~host ~port =
  match get_json ~host ~port "/health" with
  | Error e -> Error e
  | Ok health -> (
    match get_json ~host ~port "/summary" with
    | Error e -> Error e
    | Ok summary ->
      let spark =
        match
          get_json ~host ~port
            (Printf.sprintf "/series?name=%s&last=%d" rate_series spark_points)
        with
        | Ok series -> (
          match Json.member "points" series with
          | Some (Json.Arr pts) ->
            List.filter_map
              (function Json.Arr [ t; v ] -> Some (jnum t, jnum v) | _ -> None)
              pts
          | _ -> [])
        | Error _ -> []
      in
      Ok
        {
          at = Unix.gettimeofday ();
          status = jstr "status" health;
          run = jstr "run" health;
          completed = jint "completed" health;
          total = jint "total" health;
          fp_fired = summary_counter summary rate_series;
          unique_bugs = summary_counter summary "engine.unique_bugs";
          bug_race = summary_counter summary "bugs.race";
          bug_semantic = summary_counter summary "bugs.semantic";
          bug_perf = summary_counter summary "bugs.perf";
          pm_store_bytes = summary_counter summary "pm.store_bytes";
          pm_flushes = summary_counter summary "pm.flushes";
          pm_fences = summary_counter summary "pm.fences";
          pm_snapshot_bytes = summary_counter summary "pm.snapshot_bytes";
          pm_live_bytes = summary_gauge summary "pm.chunk_bytes_live";
          samples = summary_counter summary "pulse.samples";
          spark;
        })

(* ---- rendering ---- *)

let human_bytes v =
  let v = Float.max 0.0 v in
  if v < 1024.0 then Printf.sprintf "%.0f B" v
  else if v < 1024.0 *. 1024.0 then Printf.sprintf "%.1f KiB" (v /. 1024.0)
  else if v < 1024.0 *. 1024.0 *. 1024.0 then Printf.sprintf "%.1f MiB" (v /. 1024.0 /. 1024.0)
  else Printf.sprintf "%.2f GiB" (v /. 1024.0 /. 1024.0 /. 1024.0)

let bar ~width ~completed ~total =
  if total <= 0 then String.make width '-'
  else begin
    let filled = max 0 (min width (width * completed / total)) in
    String.concat "" [ String.make filled '#'; String.make (width - filled) '-' ]
  end

let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* Per-interval deltas of the cumulative series, scaled to eight glyph
   heights.  A flat (or single-point) window renders as all-low. *)
let sparkline pts =
  let deltas =
    match pts with
    | [] | [ _ ] -> []
    | (_, v0) :: rest ->
      let prev = ref v0 in
      List.map
        (fun (_, v) ->
          let d = Float.max 0.0 (v -. !prev) in
          prev := v;
          d)
        rest
  in
  match deltas with
  | [] -> ""
  | _ ->
    let hi = List.fold_left Float.max 0.0 deltas in
    if hi <= 0.0 then String.concat "" (List.map (fun _ -> spark_glyphs.(0)) deltas)
    else
      String.concat ""
        (List.map
           (fun d ->
             let i = int_of_float (d /. hi *. 7.0) in
             spark_glyphs.(max 0 (min 7 i)))
           deltas)

(* fp/s over the sparkline window. *)
let rate pts =
  match (pts, List.rev pts) with
  | (t0, v0) :: _, (t1, v1) :: _ when t1 > t0 && v1 >= v0 -> Some ((v1 -. v0) /. (t1 -. t0))
  | _ -> None

let render ?(width = 72) snap =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let pct = if snap.total > 0 then 100 * snap.completed / snap.total else 0 in
  let r = rate snap.spark in
  let eta =
    match r with
    | Some r when r > 0.01 && snap.total > snap.completed ->
      Printf.sprintf "  ETA %.1fs" (float_of_int (snap.total - snap.completed) /. r)
    | _ -> ""
  in
  let rate_s = match r with Some r -> Printf.sprintf "  %.1f fp/s" r | None -> "" in
  line "xfd pulse — %-8s run %s" snap.status snap.run;
  line "progress  [%s] %d/%d (%d%%)%s%s"
    (bar ~width:(max 10 (width - 40)) ~completed:snap.completed ~total:snap.total)
    snap.completed snap.total pct rate_s eta;
  line "bugs      %d unique  (race %d, semantic %d, perf %d)   fp fired %d" snap.unique_bugs
    snap.bug_race snap.bug_semantic snap.bug_perf snap.fp_fired;
  line "pm        stores %s  flushes %d  fences %d  snapshots %s  live %s"
    (human_bytes (float_of_int snap.pm_store_bytes))
    snap.pm_flushes snap.pm_fences
    (human_bytes (float_of_int snap.pm_snapshot_bytes))
    (human_bytes snap.pm_live_bytes);
  (match sparkline snap.spark with
  | "" -> ()
  | s -> line "fp fired  %s  (%d samples)" s snap.samples);
  Buffer.contents b

let redrawer oc =
  let tty = Unix.isatty (Unix.descr_of_out_channel oc) in
  let prev_lines = ref 0 in
  fun frame ->
    let lines = String.split_on_char '\n' frame in
    let lines = match List.rev lines with "" :: r -> List.rev r | _ -> lines in
    if tty && !prev_lines > 0 then Printf.fprintf oc "\x1b[%dA" !prev_lines;
    List.iter
      (fun l ->
        output_string oc l;
        if tty then output_string oc "\x1b[K";
        output_char oc '\n')
      lines;
    prev_lines := List.length lines;
    flush oc
