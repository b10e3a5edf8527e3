module Obs = Xfd_obs.Obs
module Flight = Xfd_flight.Flight
module Perfetto = Xfd_flight.Perfetto

type opts = {
  metrics_out : string option;
  trace_out : string option;
  flight_out : string option;
  summary : bool;
  live : bool;
  port : int option;
  interval : float;
  linger : float;
  pulse_out : string option;
}

let default =
  {
    metrics_out = None;
    trace_out = None;
    flight_out = None;
    summary = false;
    live = false;
    port = None;
    interval = 0.25;
    linger = 0.0;
    pulse_out = None;
  }

(* The sampler and everything that reads it. *)
type pulse = {
  tsdb : Tsdb.t;
  server : Pulse.t option;
  dash : (Ticker.t * (unit -> unit)) option;  (* ticker, final render *)
}

type t = {
  opts : opts;
  sink : Obs.Sink.t option;
  collector : (string * Perfetto.Collector.t) option;
  pulse : pulse option;
  mutable stopped : bool;
}

let start_pulse opts =
  let tsdb = Tsdb.create () in
  Tsdb.start tsdb ~interval:opts.interval;
  let server =
    Option.map
      (fun port ->
        let s = Pulse.start ~port ~tsdb () in
        Format.eprintf "pulse: serving http://127.0.0.1:%d/ (try /metrics, /health)@."
          (Pulse.port s);
        s)
      opts.port
  in
  let dash =
    if opts.live && Unix.isatty Unix.stderr then begin
      let redraw = Dash.redrawer stderr in
      let render () = redraw (Dash.render (Dash.snap_local tsdb)) in
      Some (Ticker.start ~interval:(Float.max 0.2 opts.interval) render, render)
    end
    else None
  in
  { tsdb; server; dash }

let start opts =
  let sink = Option.map Obs.Sink.to_file opts.metrics_out in
  Option.iter Obs.Sink.install sink;
  let collector = Option.map (fun f -> (f, Perfetto.Collector.start ())) opts.trace_out in
  if opts.flight_out <> None then Flight.set_level Flight.Debug;
  let pulse =
    if opts.live || opts.port <> None || opts.pulse_out <> None then Some (start_pulse opts)
    else None
  in
  { opts; sink; collector; pulse; stopped = false }

let progress t =
  Option.map (fun _ ~completed ~total -> Pulse.note_progress ~completed ~total) t.pulse

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    let o = t.opts in
    (* The end state first, and the dashboard's last frame: nothing else
       may write to stderr under a live dashboard. *)
    Option.iter
      (fun p ->
        Option.iter (fun (ticker, _) -> Ticker.stop ticker) p.dash;
        Tsdb.sample p.tsdb;
        Option.iter (fun (_, render) -> render ()) p.dash)
      t.pulse;
    Option.iter
      (fun (file, c) ->
        let n = Perfetto.Collector.stop_to_file c file in
        Format.eprintf "trace written to %s (%d slices)@." file n)
      t.collector;
    Option.iter
      (fun file ->
        let n = Flight.write_jsonl file in
        Format.eprintf "flight log written to %s (%d events)@." file n)
      o.flight_out;
    Option.iter
      (fun s ->
        Obs.write_summary ();
        Obs.Sink.uninstall s)
      t.sink;
    if o.summary then Format.eprintf "%a" Obs.pp_summary ();
    Option.iter
      (fun p ->
        if o.linger > 0.0 then Unix.sleepf o.linger;
        Tsdb.stop p.tsdb;
        Option.iter Pulse.stop p.server;
        Option.iter
          (fun file ->
            let n = Tsdb.write_jsonl p.tsdb file in
            Format.eprintf "pulse series written to %s (%d series)@." file n)
          o.pulse_out)
      t.pulse
  end

let with_ opts f =
  let t = start opts in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
