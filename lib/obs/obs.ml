module Json = Xfd_util.Json

let now () = Unix.gettimeofday ()

(* ---- global switch ---- *)

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

(* ---- metric registry ----

   One global table, name -> metric.  Registration happens at module
   initialisation of the instrumented libraries; updates happen from every
   thread that detects (serve workers run several detects at once), so
   all metric state is Atomic and the registry itself is mutex-protected. *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

let hist_buckets = 63

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array; (* bucket i >= 1: samples in [2^(i-1), 2^i - 1] *)
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let register name build probe =
  with_lock registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> begin
        match probe m with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Obs: %S already registered as another metric kind" name)
      end
      | None ->
        let v = build () in
        v)

module Counter = struct
  type t = counter

  let make name =
    register name
      (fun () ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        Hashtbl.replace registry name (C c);
        c)
      (function C c -> Some c | G _ | H _ -> None)

  let name t = t.c_name
  let add t n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add t.c_value n)
  let incr t = add t 1
  let value t = Atomic.get t.c_value
end

module Gauge = struct
  type t = gauge

  let make name =
    register name
      (fun () ->
        let g = { g_name = name; g_value = Atomic.make 0.0 } in
        Hashtbl.replace registry name (G g);
        g)
      (function G g -> Some g | C _ | H _ -> None)

  let name t = t.g_name
  let set t v = if Atomic.get enabled_flag then Atomic.set t.g_value v
  let value t = Atomic.get t.g_value
end

module Histogram = struct
  type t = histogram

  let make name =
    register name
      (fun () ->
        let h =
          {
            h_name = name;
            h_counts = Array.init hist_buckets (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0;
            h_max = Atomic.make 0;
          }
        in
        Hashtbl.replace registry name (H h);
        h)
      (function H h -> Some h | C _ | G _ -> None)

  let name t = t.h_name

  (* Bucket index = bit width of the sample: 0 -> 0, 1 -> 1, 2..3 -> 2, ... *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      min (hist_buckets - 1) (bits 0 v)
    end

  let rec store_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

  (* Negative samples are rejected whole rather than partially recorded:
     buckets have no negative range and a clamped sum would skew every
     summary, so the sample is dropped and the drop is counted. *)
  let observe_dropped = Counter.make "obs.observe_dropped"

  let observe t v =
    if Atomic.get enabled_flag then begin
      if v < 0 then Counter.incr observe_dropped
      else begin
        ignore (Atomic.fetch_and_add t.h_counts.(bucket_of v) 1);
        ignore (Atomic.fetch_and_add t.h_count 1);
        ignore (Atomic.fetch_and_add t.h_sum v);
        store_max t.h_max v
      end
    end

  let count t = Atomic.get t.h_count
  let sum t = Atomic.get t.h_sum
  let max_value t = Atomic.get t.h_max

  let upper_bound i = if i = 0 then 0 else (1 lsl i) - 1
  let lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)

  (* Quantile estimate from the log-scale buckets: find the bucket holding
     the target rank and interpolate linearly inside its value range.  The
     result is clamped to the observed maximum, so a quantile can never
     exceed any real sample.  Under concurrent observes the per-bucket
     reads are not one atomic snapshot — the estimate may mix in a sample
     or two from a racing writer, which is within the resolution the
     buckets already give up. *)
  let quantile t q =
    let n = Atomic.get t.h_count in
    if n = 0 then 0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
      let rec go i cum =
        if i >= hist_buckets then Atomic.get t.h_max
        else begin
          let c = Atomic.get t.h_counts.(i) in
          if c > 0 && cum + c >= rank then begin
            let lo = lower_bound i and hi = upper_bound i in
            let frac = float_of_int (rank - cum) /. float_of_int c in
            let est = float_of_int lo +. (frac *. float_of_int (hi - lo)) in
            min (Atomic.get t.h_max) (int_of_float (Float.round est))
          end
          else go (i + 1) (cum + c)
        end
      in
      go 0 0
    end

  let default_quantiles = [ 0.50; 0.95; 0.99 ]
  let quantiles t = List.map (fun q -> (q, quantile t q)) default_quantiles

  let buckets t =
    let acc = ref [] in
    for i = hist_buckets - 1 downto 0 do
      let n = Atomic.get t.h_counts.(i) in
      if n > 0 then acc := (upper_bound i, n) :: !acc
    done;
    !acc
end

let find_metric name = with_lock registry_mutex (fun () -> Hashtbl.find_opt registry name)

let counter_value name =
  match find_metric name with Some (C c) -> Some (Counter.value c) | _ -> None

let gauge_value name =
  match find_metric name with Some (G g) -> Some (Gauge.value g) | _ -> None

(* ---- sinks ---- *)

module Sink = struct
  type t = { id : int; write : Json.t -> unit; close : unit -> unit }

  let next_id = Atomic.make 0

  let to_channel oc =
    {
      id = Atomic.fetch_and_add next_id 1;
      write =
        (fun j ->
          output_string oc (Json.to_string j);
          output_char oc '\n');
      close = (fun () -> flush oc);
    }

  let to_file path =
    let oc = open_out path in
    {
      id = Atomic.fetch_and_add next_id 1;
      write =
        (fun j ->
          output_string oc (Json.to_string j);
          output_char oc '\n');
      close = (fun () -> close_out oc);
    }

  (* A sink around arbitrary callbacks — e.g. an in-memory collector.
     [write] calls are serialized by the dispatch lock in [emit]. *)
  let of_fn ~write ~close = { id = Atomic.fetch_and_add next_id 1; write; close }

  let sinks : t list ref = ref []
  let sinks_mutex = Mutex.create ()
  let any_active = Atomic.make false

  let install t =
    with_lock sinks_mutex (fun () ->
        sinks := t :: !sinks;
        Atomic.set any_active true)

  let uninstall t =
    with_lock sinks_mutex (fun () ->
        sinks := List.filter (fun s -> s.id <> t.id) !sinks;
        Atomic.set any_active (!sinks <> []));
    t.close ()

  let active () = Atomic.get any_active

  let emit j =
    if Atomic.get any_active then
      with_lock sinks_mutex (fun () -> List.iter (fun s -> s.write j) !sinks)
end

(* ---- spans ---- *)

module Span = struct
  type record = {
    id : int;
    parent : int option;
    name : string;
    tid : int; (* integer id of the domain the span ran on *)
    start : float;
    dur : float;
    meta : (string * Json.t) list;
  }

  (* A run's finished spans, newest first.  A scope may be handed to
     another thread or domain, so spans are pushed with a CAS. *)
  type run = record list Atomic.t

  type scope = { run : run; span_id : int }

  let next_id = Atomic.make 0

  (* The process-lifetime aggregate behind [summary_json]: the only span
     state shared between runs. *)
  let agg : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32
  let agg_mutex = Mutex.create ()

  let record_to_json r =
    Json.Obj
      ([
         ("type", Json.Str "span");
         ("id", Json.Int r.id);
         ("parent", match r.parent with Some p -> Json.Int p | None -> Json.Null);
         ("name", Json.Str r.name);
         ("tid", Json.Int r.tid);
         ("start_s", Json.Float r.start);
         ("dur_s", Json.Float r.dur);
       ]
      @ match r.meta with [] -> [] | m -> [ ("meta", Json.Obj m) ])

  let rec push run r =
    let old = Atomic.get run in
    if not (Atomic.compare_and_set run old (r :: old)) then push run r

  (* Count [r] into a per-name [(count, total seconds)] table. *)
  let tally tbl r =
    let c, s =
      match Hashtbl.find_opt tbl r.name with
      | Some cs -> cs
      | None ->
        let cs = (ref 0, ref 0.0) in
        Hashtbl.replace tbl r.name cs;
        cs
    in
    incr c;
    s := !s +. r.dur

  let sorted tbl =
    Hashtbl.fold (fun name (c, s) acc -> (name, (!c, !s)) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let finish run r =
    push run r;
    with_lock agg_mutex (fun () -> tally agg r);
    if Sink.active () then Sink.emit (record_to_json r)

  let timed ~meta ~run ~parent ~name f =
    let id = Atomic.fetch_and_add next_id 1 in
    let tid = (Domain.self () :> int) in
    let start = now () in
    let exit () = finish run { id; parent; name; tid; start; dur = now () -. start; meta } in
    match f { run; span_id = id } with
    | v ->
      exit ();
      v
    | exception e ->
      exit ();
      raise e

  let root ?(meta = []) ~name f =
    let run = Atomic.make [] in
    let v = timed ~meta ~run ~parent:None ~name f in
    (v, List.rev (Atomic.get run))

  let child ?(meta = []) scope ~name f =
    timed ~meta ~run:scope.run ~parent:(Some scope.span_id) ~name f

  let with_ ?meta ~name f = fst (root ?meta ~name (fun _ -> f ()))

  let aggregate records =
    let t = Hashtbl.create 16 in
    List.iter (tally t) records;
    sorted t

  let aggregate_all () = with_lock agg_mutex (fun () -> sorted agg)

  let reset () = with_lock agg_mutex (fun () -> Hashtbl.reset agg)
end

let reset () =
  with_lock registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.c_value 0
          | G g -> Atomic.set g.g_value 0.0
          | H h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.h_counts;
            Atomic.set h.h_count 0;
            Atomic.set h.h_sum 0;
            Atomic.set h.h_max 0)
        registry);
  Span.reset ()

(* ---- summaries ---- *)

let metrics_snapshot () =
  let items =
    with_lock registry_mutex (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.fold_left
    (fun (cs, gs, hs) (name, m) ->
      match m with
      | C c -> ((name, Counter.value c) :: cs, gs, hs)
      | G g -> (cs, (name, Gauge.value g) :: gs, hs)
      | H h -> (cs, gs, (name, h) :: hs))
    ([], [], []) (List.rev items)
  |> fun (cs, gs, hs) -> (List.rev cs, List.rev gs, List.rev hs)

let summary_json () =
  let counters, gauges, hists = metrics_snapshot () in
  let hist_json h =
    Json.Obj
      [
        ("count", Json.Int (Histogram.count h));
        ("sum", Json.Int (Histogram.sum h));
        ("max", Json.Int (Histogram.max_value h));
        ("p50", Json.Int (Histogram.quantile h 0.50));
        ("p95", Json.Int (Histogram.quantile h 0.95));
        ("p99", Json.Int (Histogram.quantile h 0.99));
        ( "buckets",
          Json.Arr
            (List.map
               (fun (le, n) -> Json.Obj [ ("le", Json.Int le); ("count", Json.Int n) ])
               (Histogram.buckets h)) );
      ]
  in
  Json.Obj
    [
      ("type", Json.Str "summary");
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) gauges));
      ("histograms", Json.Obj (List.map (fun (n, h) -> (n, hist_json h)) hists));
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, (count, total)) ->
               (name, Json.Obj [ ("count", Json.Int count); ("total_s", Json.Float total) ]))
             (Span.aggregate_all ())) );
    ]

let write_summary () = Sink.emit (summary_json ())

let pp_summary ppf () =
  let counters, gauges, hists = metrics_snapshot () in
  let nonzero_counters = List.filter (fun (_, v) -> v <> 0) counters in
  Format.fprintf ppf "== telemetry ==@.";
  List.iter (fun (n, v) -> Format.fprintf ppf "  %-34s %d@." n v) nonzero_counters;
  List.iter
    (fun (n, v) -> if v <> 0.0 then Format.fprintf ppf "  %-34s %g@." n v)
    gauges;
  List.iter
    (fun (n, h) ->
      if Histogram.count h > 0 then begin
        Format.fprintf ppf "  %-34s count=%d sum=%d max=%d p50=%d p95=%d p99=%d@." n
          (Histogram.count h) (Histogram.sum h) (Histogram.max_value h)
          (Histogram.quantile h 0.50) (Histogram.quantile h 0.95)
          (Histogram.quantile h 0.99);
        List.iter
          (fun (le, c) -> Format.fprintf ppf "    le %-10d %d@." le c)
          (Histogram.buckets h)
      end)
    hists;
  match Span.aggregate_all () with
  | [] -> ()
  | spans ->
    Format.fprintf ppf "  spans:@.";
    List.iter
      (fun (name, (count, total)) ->
        Format.fprintf ppf "    %-32s n=%-6d %.6f s@." name count total)
      spans
