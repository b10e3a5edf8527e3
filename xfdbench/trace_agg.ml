(* What a traced run measures: an Obs sink that totals every finished span
   by name (the engine's own phase spans and the spans the benchmark puts
   around its calls into each layer), plus counter, histogram and GC
   deltas taken around the traced ops. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json

type t = {
  totals : (string, float ref) Hashtbl.t;
  peaks : (string, float ref) Hashtbl.t;
  sink : Obs.Sink.t;
}

let add tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tbl name (ref v)

let start () =
  let totals = Hashtbl.create 32 in
  let write = function
    | Json.Obj fields when List.assoc_opt "type" fields = Some (Json.Str "span") -> (
      match (List.assoc_opt "name" fields, List.assoc_opt "dur_s" fields) with
      | Some (Json.Str name), Some (Json.Float dur) -> add totals name dur
      | _ -> ())
    | _ -> ()
  in
  let sink = Obs.Sink.of_fn ~write ~close:ignore in
  Obs.Sink.install sink;
  { totals; peaks = Hashtbl.create 4; sink }

let stop t = Obs.Sink.uninstall t.sink

(* Total seconds spent in spans called [name]. *)
let span t name = match Hashtbl.find_opt t.totals name with Some r -> !r | None -> 0.0

(* High-water-mark gauges, sampled after every run the benchmark makes
   (the engine resets the chunk peak at each detection); a layer reports
   the highest value seen. *)
let peak_gauges = [ "pm.chunk_bytes_peak"; "shadow.page_bytes_peak" ]

let note_peaks t =
  List.iter
    (fun name ->
      let v = Option.value ~default:0.0 (Obs.gauge_value name) in
      match Hashtbl.find_opt t.peaks name with
      | Some r -> r := Float.max !r v
      | None -> Hashtbl.replace t.peaks name (ref v))
    peak_gauges

let peak t name = match Hashtbl.find_opt t.peaks name with Some r -> !r | None -> 0.0

(* ---- counter deltas ---- *)

let counters =
  [
    "engine.runs";
    "engine.failure_points.fired";
    "engine.pre_replay_events";
    "pm.snapshot_bytes";
    "pm.cow_faults";
    "detector.checked_bytes";
    "shadow.divergence_rewinds";
    "lint.events";
    "fuzz.programs";
    "fuzz.divergences";
    "fuzz.meta_failures";
  ]

let histograms = [ "engine.pre_trace_events"; "engine.post_trace_events_per_run" ]

type counts = (string * float) list

let counts () : counts =
  let _, _, hists = Obs.metrics_snapshot () in
  List.map (fun n -> (n, float_of_int (Option.value ~default:0 (Obs.counter_value n)))) counters
  @ List.map
      (fun n ->
        ( n,
          match List.assoc_opt n hists with
          | Some h -> float_of_int (Obs.Histogram.sum h)
          | None -> 0.0 ))
      histograms
  @ [ ("gc.minor_words", Gc.minor_words ()) ]

let delta (before : counts) (after : counts) : counts =
  List.map2 (fun (n, a) (_, b) -> (n, b -. a)) before after
