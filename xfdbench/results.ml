(* Results: the metric definitions in BENCHMARK.json, one run's record,
   the contract line, the results file of a set of workloads, the
   spread-aware comparison of two sets of results files, and the
   Markdown performance table. *)

module Json = Xfd_util.Json

(* ---- BENCHMARK.json ---- *)

type metric = { name : string; unit : string; lower_is_better : bool; bound : float }

type benchmark = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : (string * string) list;  (** (name, unit) *)
}

let str key j = match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let num = Workload.num

let arr key j = match Json.member key j with Some (Json.Arr l) -> l | _ -> []

let benchmark_of_json j =
  let named key = List.filter_map (str "name") (arr key j) in
  let end_to_end =
    List.filter_map
      (fun m ->
        match (str "name" m, str "unit" m, str "better" m, num "bound" m) with
        | Some name, Some unit, Some better, Some bound ->
          Some { name; unit; lower_is_better = better = "lower"; bound }
        | _ -> None)
      (arr "end_to_end" j)
  in
  let per_layer =
    List.filter_map
      (fun m ->
        match (str "name" m, str "unit" m) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (arr "per_layer" j)
  in
  match num "run_seconds" j with
  | Some s when end_to_end <> [] ->
    Ok { run_seconds = int_of_float s; workloads = named "workloads"; end_to_end; per_layer }
  | _ -> Error "BENCHMARK.json needs run_seconds and end_to_end metrics"

let load_benchmark path =
  match Golden.read_file path with
  | exception Sys_error e -> Error e
  | text -> Result.bind (Json.of_string text) benchmark_of_json

(* Every failed or wrong verdict counts against this share of the
   attempted ops.  It is reported next to the end-to-end metrics and gated
   absolutely: any rise is a regression. *)
let failed_frac =
  { name = "failed_ops_frac"; unit = "share"; lower_is_better = true; bound = 0.0 }

(* ---- one run ---- *)

(* The end-to-end samples of a run, by metric name: the timings scaled to
   nominal core speed, then the same timings in wall time and the core
   slowdowns behind the scaling. *)
let samples (r : Workload.result) =
  let scaled = r.Workload.scaled and wall = r.Workload.wall in
  [
    ("throughput_per_s", "1/s", scaled.Workload.throughput);
    ("latency_p50_ms", "ms", scaled.Workload.latency_ms);
    ("peak_rss_mib", "MiB", [ r.Workload.peak_rss_mib ]);
    ("setup_s", "s", scaled.Workload.setup_s);
    ( failed_frac.name,
      failed_frac.unit,
      [ float_of_int r.Workload.failed /. float_of_int (max 1 r.Workload.attempted) ] );
    ("wall_throughput_per_s", "1/s", wall.Workload.throughput);
    ("wall_latency_p50_ms", "ms", wall.Workload.latency_ms);
    ("wall_setup_s", "s", wall.Workload.setup_s);
    ("host_slowdown", "x", r.Workload.slowdown);
  ]

let summary_json unit xs =
  let s =
    match xs with
    | [] -> { Stats.median = 0.0; q1 = 0.0; q3 = 0.0; n = 0 }
    | xs -> Stats.summarize xs
  in
  Json.Obj
    [
      ("unit", Json.Str unit);
      ("median", Json.Float s.Stats.median);
      ("q1", Json.Float s.Stats.q1);
      ("q3", Json.Float s.Stats.q3);
      ("n", Json.Int s.Stats.n);
    ]

let value_json v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]

let correct (r : Workload.result) = r.Workload.failed = 0 && r.Workload.attempted > 0

(* The full record of one run: every metric with its median, quartiles
   and sample count, and the layer metrics of a traced run. *)
let detail_json (r : Workload.result) =
  let call_ms = r.Workload.call_ms in
  let tail_pct, tail_ms = match call_ms with [] -> (0.0, 0.0) | xs -> Stats.tail xs in
  Json.Obj
    [
      ("workload", Json.Str r.Workload.workload);
      ("work", Json.Str r.Workload.work);
      ("seed", Json.Int r.Workload.seed);
      ("seconds", Json.Float r.Workload.seconds);
      ("traced", Json.Bool r.Workload.traced);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.Workload.attempted);
      ("failed", Json.Int r.Workload.failed);
      ( "metrics",
        Json.Obj (List.map (fun (name, unit, xs) -> (name, summary_json unit xs)) (samples r)) );
      ( "tail",
        Json.Obj
          [
            ("ms", Json.Float tail_ms);
            ("percentile", Json.Float tail_pct);
            ("n", Json.Int (List.length call_ms));
          ] );
      ( "layers",
        Json.Obj
          (List.map (fun (name, v, unit) -> (name, value_json v unit)) r.Workload.layers) );
    ]

(* The one-line result of a measurement as BENCHMARK.json defines it:
   the verdict counts and every end-to-end metric (medians), or every
   per-layer metric for a traced run.  [Error] names a metric the run did
   not produce. *)
let contract_json bench (r : Workload.result) =
  let metrics =
    if r.Workload.traced then
      List.map
        (fun (name, _) ->
          match List.find_opt (fun (n, _, _) -> n = name) r.Workload.layers with
          | Some (_, v, unit) -> Ok (name, value_json v unit)
          | None -> Error name)
        bench.per_layer
    else
      List.map
        (fun m ->
          match List.find_opt (fun (n, _, _) -> n = m.name) (samples r) with
          | Some (_, unit, (_ :: _ as xs)) -> Ok (m.name, value_json (Stats.median xs) unit)
          | Some _ | None -> Error m.name)
        bench.end_to_end
  in
  match List.find_map (function Error n -> Some n | Ok _ -> None) metrics with
  | Some missing -> Error missing
  | None ->
    Ok
      (Json.Obj
         [
           ("correct", Json.Bool (correct r));
           ("attempted", Json.Int r.Workload.attempted);
           ("failed", Json.Int r.Workload.failed);
           ("metrics", Json.Obj (List.filter_map Result.to_option metrics));
         ])

(* A workload's traced record with its tracing overhead: the median call
   latency of the traced run over that of an untraced run of the same
   workload and seed, less one.  Both runs measure the full window. *)
let with_trace_overhead ~untraced traced =
  let p50 d =
    Option.bind (Option.bind (Json.member "metrics" d) (Json.member "latency_p50_ms")) (num "median")
  in
  match (p50 untraced, p50 traced, traced) with
  | Some u, Some t, Json.Obj fields when u > 0.0 ->
    let overhead = ("trace_overhead_frac", value_json ((t /. u) -. 1.0) "share") in
    Json.Obj
      (List.map
         (function
           | "layers", Json.Obj layers -> ("layers", Json.Obj (layers @ [ overhead ]))
           | field -> field)
         fields)
  | _ -> traced

(* ---- results files ---- *)

let results_json ~seed ~seconds ~traced details =
  Json.Obj
    [
      ("type", Json.Str "xfd_bench.results");
      ("schema_version", Json.Int 1);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("traced", Json.Bool traced);
      ("workloads", Json.Arr details);
    ]

let load_results path =
  match Golden.read_file path with
  | exception Sys_error e -> Error e
  | text -> (
    match Json.of_string text with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j when str "type" j = Some "xfd_bench.results" -> Ok j
    | Ok _ -> Error (path ^ ": not an xfd_bench results file"))

(* (workload, metric) -> the run's median, for every end-to-end metric. *)
let medians results =
  List.concat_map
    (fun w ->
      match (str "workload" w, Json.member "metrics" w) with
      | Some wl, Some (Json.Obj ms) ->
        List.filter_map
          (fun (metric, s) -> Option.map (fun v -> ((wl, metric), v)) (num "median" s))
          ms
      | _ -> [])
    (arr "workloads" results)

(* ---- comparison ---- *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Judge one metric on one workload from the per-run values of the base
   and the new side.  Pairs are (base.(i), next.(i)).
   - Any rise of the failure share is a regression.
   - Where either side's spread (IQR over median) is wider than the bound
     the metric is unresolved, unless every new run beats every base run
     (improved) or loses to it by more than the bound (regressed).
   - A median worse by more than the bound is a regression.
   - A gain needs the new side to win at least 9 in 10 pairs and its
     median to differ from the base's by more than the base's IQR. *)
let judge (m : metric) ~base ~next =
  let better a b = if m.lower_is_better then a < b else a > b in
  let sb = Stats.summarize base and sn = Stats.summarize next in
  if m.bound = 0.0 then
    if List.fold_left Float.max 0.0 next > List.fold_left Float.max 0.0 base then Regressed
    else Unchanged
  else
    let worse =
      let d = (sn.Stats.median -. sb.Stats.median) /. Float.abs sb.Stats.median in
      if m.lower_is_better then d else -.d
    in
    let all_pairs p = List.for_all (fun n -> List.for_all (fun b -> p n b) base) next in
    let spread = Float.max (Stats.spread sb) (Stats.spread sn) in
    let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
    let pairs = zip base next in
    let wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
    if spread > m.bound then
      if all_pairs better then Improved
      else if worse > m.bound && all_pairs (fun n b -> better b n) then Regressed
      else Unresolved
    else if worse > m.bound then Regressed
    else if
      worse < 0.0
      && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
      && Float.abs (sn.Stats.median -. sb.Stats.median) > sb.Stats.q3 -. sb.Stats.q1
    then Improved
    else Unchanged

type row = {
  workload : string;
  metric : metric;
  base : float list;
  next : float list;
  verdict : verdict;
}

(* Compare two sets of results files metric by metric, workload by
   workload.  [Error] on a pairing one side lacks. *)
let compare_sets bench ~base ~next =
  let values files key = List.map (fun f -> List.assoc_opt key (medians f)) files in
  let workloads =
    List.fold_left
      (fun acc ((w, _), _) -> if List.mem w acc then acc else acc @ [ w ])
      []
      (List.concat_map medians (base @ next))
  in
  let keys =
    List.concat_map
      (fun w -> List.map (fun m -> (w, m)) (bench.end_to_end @ [ failed_frac ]))
      workloads
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (w, m) :: rest ->
      let b = values base (w, m.name) and n = values next (w, m.name) in
      if List.mem None b || List.mem None n then
        Error (Printf.sprintf "%s on %s is missing from a results file" m.name w)
      else
        let base = List.filter_map Fun.id b and next = List.filter_map Fun.id n in
        go ({ workload = w; metric = m; base; next; verdict = judge m ~base ~next } :: acc) rest
  in
  go [] keys

let fmt_summary xs =
  let s = Stats.summarize xs in
  Printf.sprintf "%.4g [%.4g-%.4g] n=%d" s.Stats.median s.Stats.q1 s.Stats.q3 s.Stats.n

let print_comparison rows =
  Printf.printf "| workload | metric | base median [q1-q3] | new median [q1-q3] | change | verdict |\n";
  Printf.printf "|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      let mb = Stats.median r.base and mn = Stats.median r.next in
      let change =
        if mb = 0.0 then if mn = 0.0 then "0" else "n/a"
        else Printf.sprintf "%+.1f%%" (100.0 *. (mn -. mb) /. Float.abs mb)
      in
      Printf.printf "| %s | %s (%s) | %s | %s | %s | %s |\n" r.workload r.metric.name
        r.metric.unit (fmt_summary r.base) (fmt_summary r.next) change
        (verdict_to_string r.verdict))
    rows

(* ---- the Markdown performance table ---- *)

let table bench results =
  let metrics = bench.end_to_end @ [ failed_frac ] in
  let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
  let cell w m =
    match Option.bind (Json.member "metrics" w) (Json.member m.name) with
    | Some s -> (
      match (num "median" s, num "q1" s, num "q3" s, num "n" s) with
      | Some med, Some q1, Some q3, Some n ->
        Printf.sprintf "%.4g [%.4g-%.4g], n=%d" med q1 q3 (int_of_float n)
      | _ -> "-")
    | None -> "-"
  in
  String.concat ""
    (row ("workload" :: List.map (fun m -> Printf.sprintf "%s (%s)" m.name m.unit) metrics)
    :: row (List.map (fun _ -> "---") ("" :: List.map (fun m -> m.name) metrics))
    :: List.map
         (fun w -> row (Option.value ~default:"?" (str "workload" w) :: List.map (cell w) metrics))
         (arr "workloads" results))
