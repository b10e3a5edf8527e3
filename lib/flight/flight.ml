(* The flight recorder: a bounded, leveled run log for detection runs.

   WITCHER-scale detection (millions of test cases) is only operable when
   the tool itself is diagnosable: when a sweep stalls or a verdict looks
   wrong, the question "what was the engine doing?" must be answerable
   without re-running under a debugger.  The recorder keeps the last
   [capacity] lifecycle events — failure points scheduled/started/judged,
   snapshots recorded/dropped, runs aborted — in a ring, stamped with a
   per-run id, and streams them as JSONL when an [Obs.Sink] is installed.
   Every [gc_sample_every]-th event also samples [Gc.quick_stat] into
   gauges, so runtime pressure is visible in the same telemetry stream.

   Everything here is observation-only: recording is bounded, never
   raises into the caller, and has no channel back into detection state,
   so verdicts are byte-identical with the recorder on or off. *)

module Json = Xfd_util.Json
module Obs = Xfd_obs.Obs

type level = Debug | Info | Warn

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2
let level_to_string = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | _ -> None

type event = {
  seq : int;
  ts : float;
  run : string;
  level : level;
  name : string;
  fields : (string * Json.t) list;
}

let c_events = Obs.Counter.make "flight.events"
let c_dropped = Obs.Counter.make "flight.events_dropped"

(* ---- configuration ---- *)

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

let threshold = Atomic.make (level_rank Info)
let level () = match Atomic.get threshold with 0 -> Debug | 1 -> Info | _ -> Warn
let set_level l = Atomic.set threshold (level_rank l)

let default_capacity = 8192

(* ---- the ring ----

   The newest [capacity] events are retained, the oldest dropped and
   counted.  Events arrive from every thread that detects (serve workers
   run several detects at once), so the ring is mutex-protected. *)

let mutex = Mutex.create ()
let buf : event option array ref = ref (Array.make default_capacity None)
let head = ref 0
let len = ref 0
let seq_counter = Atomic.make 0

let with_lock f =
  Mutex.lock mutex;
  match f () with
  | v ->
    Mutex.unlock mutex;
    v
  | exception e ->
    Mutex.unlock mutex;
    raise e

let capacity () = with_lock (fun () -> Array.length !buf)

let set_capacity n =
  if n <= 0 then invalid_arg "Flight.set_capacity: capacity must be positive";
  with_lock (fun () ->
      let old = !buf in
      let old_cap = Array.length old in
      let keep = min !len n in
      let dropped = !len - keep in
      let fresh = Array.make n None in
      for i = 0 to keep - 1 do
        fresh.(i) <- old.((!head - keep + i + (2 * old_cap)) mod old_cap)
      done;
      buf := fresh;
      head := keep mod n;
      len := keep;
      if dropped > 0 then Obs.Counter.add c_dropped dropped)

let clear () =
  with_lock (fun () ->
      Array.fill !buf 0 (Array.length !buf) None;
      head := 0;
      len := 0)

let events () =
  with_lock (fun () ->
      let cap = Array.length !buf in
      let acc = ref [] in
      for i = 1 to !len do
        match !buf.((!head - i + (2 * cap)) mod cap) with
        | Some e -> acc := e :: !acc
        | None -> assert false
      done;
      !acc)

(* ---- run ids ---- *)

let run_counter = Atomic.make 0
let current_run = Atomic.make "-"
let run_id () = Atomic.get current_run

let new_run_id () =
  let n = Atomic.fetch_and_add run_counter 1 in
  Printf.sprintf "run-%04x%04x-%d"
    (Unix.getpid () land 0xffff)
    (Hashtbl.hash (Unix.gettimeofday (), Unix.getpid (), n) land 0xffff)
    n

(* ---- GC gauges ----

   Sampled, not per-event: [Gc.quick_stat] is cheap but not free, and the
   gauges only need trend resolution. *)

let gc_sample_every = 64
let gc_tick = Atomic.make 0
let g_minor_words = Obs.Gauge.make "gc.minor_words"
let g_major_words = Obs.Gauge.make "gc.major_words"
let g_heap_words = Obs.Gauge.make "gc.heap_words"
let g_minor_collections = Obs.Gauge.make "gc.minor_collections"
let g_major_collections = Obs.Gauge.make "gc.major_collections"

let sample_gc () =
  let s = Gc.quick_stat () in
  Obs.Gauge.set g_minor_words s.Gc.minor_words;
  Obs.Gauge.set g_major_words s.Gc.major_words;
  Obs.Gauge.set g_heap_words (float_of_int s.Gc.heap_words);
  Obs.Gauge.set g_minor_collections (float_of_int s.Gc.minor_collections);
  Obs.Gauge.set g_major_collections (float_of_int s.Gc.major_collections)

(* ---- recording ---- *)

let event_to_json e =
  Json.Obj
    ([
       ("type", Json.Str "flight");
       ("seq", Json.Int e.seq);
       ("ts_s", Json.Float e.ts);
       ("run", Json.Str e.run);
       ("level", Json.Str (level_to_string e.level));
       ("event", Json.Str e.name);
     ]
    @ match e.fields with [] -> [] | fs -> [ ("fields", Json.Obj fs) ])

let record ?(level = Info) ?run name fields =
  if Atomic.get enabled_flag && level_rank level >= Atomic.get threshold then begin
    let e =
      {
        seq = Atomic.fetch_and_add seq_counter 1;
        ts = Unix.gettimeofday ();
        run = (match run with Some r -> r | None -> Atomic.get current_run);
        level;
        name;
        fields;
      }
    in
    with_lock (fun () ->
        let cap = Array.length !buf in
        if !len = cap then Obs.Counter.incr c_dropped else incr len;
        !buf.(!head) <- Some e;
        head := (!head + 1) mod cap);
    Obs.Counter.incr c_events;
    if Atomic.fetch_and_add gc_tick 1 mod gc_sample_every = 0 then sample_gc ();
    if Obs.Sink.active () then Obs.Sink.emit (event_to_json e)
  end

let begin_run ~program =
  let id = new_run_id () in
  Atomic.set current_run id;
  record ~level:Info ~run:id "run.begin" [ ("program", Json.Str program) ];
  id

let end_run ~run fields = record ~level:Info ~run "run.end" fields

(* ---- export ---- *)

let write_jsonl path =
  let evs = events () in
  let oc = open_out path in
  List.iter
    (fun e ->
      output_string oc (Json.to_string (event_to_json e));
      output_char oc '\n')
    evs;
  close_out oc;
  List.length evs
