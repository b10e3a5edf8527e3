(* Chrome trace-event export: a span list as a trace.json.

   The format is the JSON "trace event" flavour that Perfetto and
   chrome://tracing both load: one object per span with "ph":"X"
   (complete event), microsecond timestamps relative to the earliest
   span, and pid/tid lanes.  Spans carry the id of the domain they ran
   on, so each domain-pool worker of the engine's post-failure stage
   gets its own track — the parallel section of a run is visible as
   overlapping post_run slices on separate rows. *)

module Json = Xfd_util.Json
module Obs = Xfd_obs.Obs

let pid = 1

(* One slice, normalized against the trace origin [t0] (seconds). *)
let complete_event ~t0 ~name ~tid ~start ~dur ~args =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str "xfd");
       ("ph", Json.Str "X");
       ("ts", Json.Float (1e6 *. (start -. t0)));
       ("dur", Json.Float (1e6 *. dur));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])

let metadata_event ~name ~tid ~args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let track_name tid = if tid = 0 then "main" else Printf.sprintf "domain-%d" tid

let thread_metadata tids =
  List.concat_map
    (fun tid ->
      [
        metadata_event ~name:"thread_name" ~tid
          ~args:[ ("name", Json.Str (track_name tid)) ];
        (* Keep the main domain on top, workers below in domain order. *)
        metadata_event ~name:"thread_sort_index" ~tid ~args:[ ("sort_index", Json.Int tid) ];
      ])
    (List.sort_uniq compare tids)

let trace_json ?(process_name = "xfd") slices tids =
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          ((metadata_event ~name:"process_name" ~tid:0
              ~args:[ ("name", Json.Str process_name) ]
           :: thread_metadata tids)
          @ slices) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let of_spans ?process_name (spans : Obs.Span.record list) =
  let t0 =
    List.fold_left (fun acc (r : Obs.Span.record) -> Float.min acc r.Obs.Span.start)
      infinity spans
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let slices =
    List.map
      (fun (r : Obs.Span.record) ->
        complete_event ~t0 ~name:r.Obs.Span.name ~tid:r.Obs.Span.tid ~start:r.Obs.Span.start
          ~dur:r.Obs.Span.dur ~args:r.Obs.Span.meta)
      spans
  in
  trace_json ?process_name slices (List.map (fun (r : Obs.Span.record) -> r.Obs.Span.tid) spans)

let write path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let to_file ?process_name path spans = write path (of_spans ?process_name spans)

(* ---- collector ----

   [of_spans] serves callers that already hold a span list (one engine
   outcome).  Long multi-run sessions — a fuzz sweep, the whole bench
   harness — never hold the full list: each [Engine.detect] returns its
   own spans in its outcome, and nothing else keeps them.  The collector
   taps the sink stream instead: it parses every {"type":"span"} record
   back into slice parameters as it passes by, bounded by [capacity]. *)

module Collector = struct
  type t = {
    sink : Obs.Sink.t;
    (* (name, tid, start_s, dur_s, args), newest first; writes are already
       serialized by the sink dispatch lock. *)
    slices : (string * int * float * float * (string * Json.t) list) list ref;
    count : int ref;
    dropped : int ref;
    capacity : int;
  }

  let field j key = Json.member key j

  let num = function Some (Json.Float f) -> Some f | Some (Json.Int i) -> Some (float_of_int i) | _ -> None

  let slice_of_json j =
    match (field j "type", field j "name", num (field j "start_s"), num (field j "dur_s")) with
    | Some (Json.Str "span"), Some (Json.Str name), Some start, Some dur ->
      let tid = match field j "tid" with Some (Json.Int t) -> t | _ -> 0 in
      let args = match field j "meta" with Some (Json.Obj m) -> m | _ -> [] in
      Some (name, tid, start, dur, args)
    | _ -> None

  let start ?(capacity = 200_000) () =
    let slices = ref [] and count = ref 0 and dropped = ref 0 in
    let write j =
      match slice_of_json j with
      | None -> ()
      | Some s ->
        if !count < capacity then begin
          slices := s :: !slices;
          incr count
        end
        else incr dropped
    in
    let sink = Obs.Sink.of_fn ~write ~close:ignore in
    Obs.Sink.install sink;
    { sink; slices; count; dropped; capacity }

  let dropped t = !(t.dropped)

  let stop t =
    Obs.Sink.uninstall t.sink;
    let slices = List.rev !(t.slices) in
    let t0 =
      List.fold_left (fun acc (_, _, start, _, _) -> Float.min acc start) infinity slices
    in
    let t0 = if Float.is_finite t0 then t0 else 0.0 in
    trace_json
      (List.map
         (fun (name, tid, start, dur, args) -> complete_event ~t0 ~name ~tid ~start ~dur ~args)
         slices)
      (List.map (fun (_, tid, _, _, _) -> tid) slices)

  let stop_to_file t path =
    let n = !(t.count) in
    write path (stop t);
    n
end
