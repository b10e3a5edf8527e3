(* Detection jobs: what a client submits, how it runs, what comes back.

   A job spec is first-order data parsed from the POST /v1/jobs JSON:
   either a named workload from the evaluation set (with init/test sizes
   and an optional seeded-bug patch, exactly the `xfd_cli run` surface)
   or an inline `.xfdprog` fuzz program (the corpus repro format).  Per
   job the client picks the engine (`incremental` — the prefix-sharing
   default — or `fresh`, the from-zero oracle behind `run --oracle`)
   and whether forensics chains are wanted in the report.

   The verdict fingerprint is the service's equivalence contract: a
   digest over everything detection *found* — program name, failure
   points, event counts, per-failure-point verdict keys in replay order
   and the deduplicated bug keys — and nothing nondeterministic (no
   wall-clock, no span tree).  A job's fingerprint is required to be
   byte-identical to [Engine.detect] run in-process on the same input,
   and the incremental/fresh engines are required to agree; both are
   asserted in test/suite_serve.ml and gated in CI. *)

module Json = Xfd_util.Json
module Engine = Xfd.Engine
module Config = Xfd.Config
module Report = Xfd.Report
module Prog = Xfd_fuzz.Prog
module Workload_set = Xfd_experiments.Workload_set

(* ---- seeded-bug patch specs ("skip-tx-add=0,2;dup-flush=1") ---- *)

let faults_of_spec spec =
  let parse_is s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match int_of_string_opt (String.trim p) with
        | Some i when i >= 0 -> go (i :: acc) rest
        | _ -> Error (Printf.sprintf "bad occurrence list %S (want i,j,...)" s))
    in
    go [] parts
  in
  let parts = String.split_on_char ';' spec |> List.filter (fun s -> s <> "") in
  let skip_flush = ref [] and skip_fence = ref [] and skip_tx_add = ref [] in
  let dup_flush = ref [] and dup_tx_add = ref [] in
  let rec go = function
    | [] ->
      Ok
        (Xfd_sim.Faults.make ~skip_flush:!skip_flush ~skip_fence:!skip_fence
           ~skip_tx_add:!skip_tx_add ~dup_flush:!dup_flush ~dup_tx_add:!dup_tx_add ())
    | part :: rest -> (
      match String.split_on_char '=' part with
      | [ key; is ] -> (
        match parse_is is with
        | Error e -> Error e
        | Ok is -> (
          match key with
          | "skip-flush" -> skip_flush := is; go rest
          | "skip-fence" -> skip_fence := is; go rest
          | "skip-tx-add" -> skip_tx_add := is; go rest
          | "dup-flush" -> dup_flush := is; go rest
          | "dup-tx-add" -> dup_tx_add := is; go rest
          | _ -> Error (Printf.sprintf "unknown patch kind %S" key)))
      | _ -> Error (Printf.sprintf "bad patch component %S (want kind=i,j,...)" part))
  in
  go parts

(* ---- specs ---- *)

type kind =
  | Workload of { workload : string; init : int; test : int; patch : string option }
  | Xfdprog of { text : string; prog : Prog.t; expects : string list }

type spec = {
  kind : kind;
  engine : [ `Incremental | `Fresh ];
  forensics : bool;
}

let engine_to_string = function `Incremental -> "incremental" | `Fresh -> "fresh"

let label spec =
  match spec.kind with
  | Workload w -> "workload:" ^ w.workload
  | Xfdprog _ -> "xfdprog"

(* The per-job workload sizes are bounded so one submission cannot
   monopolise a worker forever: this is a shared service, and the
   paper-scale workloads stay far below this. *)
let max_size = 1000

let spec_of_json j =
  let str key =
    match Json.member key j with
    | Some (Json.Str s) -> Ok (Some s)
    | None -> Ok None
    | Some _ -> Error (Printf.sprintf "field %S must be a string" key)
  in
  let int_default key default lo hi =
    match Json.member key j with
    | None -> Ok default
    | Some (Json.Int n) when n >= lo && n <= hi -> Ok n
    | Some (Json.Int n) ->
      Error (Printf.sprintf "field %S out of range (%d not in [%d,%d])" key n lo hi)
    | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)
  in
  let bool_default key default =
    match Json.member key j with
    | None -> Ok default
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)
  in
  let ( let* ) = Result.bind in
  let* engine =
    match Json.member "engine" j with
    | None -> Ok `Incremental
    | Some (Json.Str "incremental") -> Ok `Incremental
    | Some (Json.Str "fresh") -> Ok `Fresh
    | Some _ -> Error "field \"engine\" must be \"incremental\" or \"fresh\""
  in
  let* forensics = bool_default "forensics" false in
  let* kind_s = str "kind" in
  let* kind =
    match kind_s with
    | Some "workload" | None -> (
      let* workload = str "workload" in
      match workload with
      | None -> Error "workload jobs need a \"workload\" field"
      | Some name -> (
        match Workload_set.find name with
        | exception Invalid_argument _ -> Error (Printf.sprintf "unknown workload %S" name)
        | _entry ->
          let* init = int_default "init" 0 0 max_size in
          let* test = int_default "test" 1 0 max_size in
          let* patch = str "patch" in
          let* () =
            match patch with
            | None -> Ok ()
            | Some p -> ( match faults_of_spec p with Ok _ -> Ok () | Error e -> Error e)
          in
          Ok (Workload { workload = name; init; test; patch })))
    | Some "xfdprog" -> (
      let* text = str "program" in
      match text with
      | None -> Error "xfdprog jobs need a \"program\" field"
      | Some text -> (
        match Prog.of_lines (String.split_on_char '\n' text) with
        | Error e -> Error (Printf.sprintf "bad xfdprog: %s" e)
        | Ok (prog, expects) -> Ok (Xfdprog { text; prog; expects })))
    | Some other -> Error (Printf.sprintf "unknown job kind %S" other)
  in
  Ok { kind; engine; forensics }

let spec_to_json spec =
  let common =
    [
      ("engine", Json.Str (engine_to_string spec.engine));
      ("forensics", Json.Bool spec.forensics);
    ]
  in
  match spec.kind with
  | Workload w ->
    Json.Obj
      ([
         ("kind", Json.Str "workload");
         ("workload", Json.Str w.workload);
         ("init", Json.Int w.init);
         ("test", Json.Int w.test);
       ]
      @ (match w.patch with None -> [] | Some p -> [ ("patch", Json.Str p) ])
      @ common)
  | Xfdprog p ->
    Json.Obj
      ([ ("kind", Json.Str "xfdprog"); ("program_bytes", Json.Int (String.length p.text)) ]
      @ common)

(* ---- the verdict fingerprint ---- *)

let fingerprint_text (o : Engine.outcome) =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "program %s\n" o.Engine.program);
  Buffer.add_string b (Printf.sprintf "failure_points %d\n" o.Engine.failure_points);
  Buffer.add_string b (Printf.sprintf "pre_events %d\n" o.Engine.pre_events);
  Buffer.add_string b (Printf.sprintf "post_events %d\n" o.Engine.post_events);
  List.iter
    (fun (r : Report.failure_report) ->
      Buffer.add_string b
        (Printf.sprintf "report %d %d [%s]\n" r.Report.failure_point r.Report.trace_pos
           (String.concat "; " (List.map Report.dedup_key r.Report.bugs))))
    o.Engine.reports;
  Buffer.add_string b
    (Printf.sprintf "unique [%s]\n"
       (String.concat "; "
          (List.sort_uniq String.compare (List.map Report.dedup_key o.Engine.unique_bugs))));
  Buffer.contents b

let fingerprint o = "xfp1-" ^ Digest.to_hex (Digest.string (fingerprint_text o))

(* ---- execution ---- *)

type outcome_summary = {
  fingerprint : string;
  failure_points : int;
  pre_events : int;
  post_events : int;
  bug_keys : string list;  (** sorted unique dedup keys *)
  races : int;
  semantic : int;
  perf : int;
  errors : int;
  expect_match : bool option;
      (** for xfdprog jobs carrying [expect] lines: did the verdict keys
          match the recorded ones? *)
  report : Json.t;  (** the full outcome JSON, served by /v1/jobs/:id/report *)
}

let config_of spec faults =
  {
    Config.default with
    Config.faults;
    engine = spec.engine;
    forensics = spec.forensics;
  }

let outcome_of spec =
  match spec.kind with
  | Workload w ->
    let entry = Workload_set.find w.workload in
    let faults =
      match w.patch with
      | None -> Xfd_sim.Faults.none
      | Some p -> (
        match faults_of_spec p with Ok f -> f | Error e -> invalid_arg e)
    in
    Engine.detect ~config:(config_of spec faults)
      (entry.Workload_set.make ~init:w.init ~test:w.test)
  | Xfdprog p ->
    Engine.detect ~config:(config_of spec Xfd_sim.Faults.none) (Prog.to_program p.prog)

let summarize spec (o : Engine.outcome) =
  let races, semantic, perf, errors = Engine.tally o in
  let bug_keys =
    List.sort_uniq String.compare (List.map Report.dedup_key o.Engine.unique_bugs)
  in
  let expect_match =
    match spec.kind with
    | Xfdprog { expects = _ :: _ as expects; _ } ->
      Some (List.sort_uniq String.compare expects = bug_keys)
    | _ -> None
  in
  {
    fingerprint = fingerprint o;
    failure_points = o.Engine.failure_points;
    pre_events = o.Engine.pre_events;
    post_events = o.Engine.post_events;
    bug_keys;
    races;
    semantic;
    perf;
    errors;
    expect_match;
    report = Engine.outcome_to_json o;
  }

(* A worker must survive anything a job does, including the fatal
   harness conditions the engine deliberately re-raises (its cleanup
   registry has already released every device and shadow page by the
   time they escape detect). *)
let run spec =
  match outcome_of spec with
  | o -> Ok (summarize spec o)
  | exception e -> Error (Printexc.to_string e)

(* ---- job records ---- *)

type state = Queued | Running | Done | Failed

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

type t = {
  id : string;
  client : string;
  spec : spec;
  submitted_at : float;
  mutable state : state;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable result : outcome_summary option;
  mutable error : string option;
}

let make ~id ~client ~spec ~now =
  {
    id;
    client;
    spec;
    submitted_at = now;
    state = Queued;
    started_at = None;
    finished_at = None;
    result = None;
    error = None;
  }

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let summary_json t =
  Json.Obj
    [
      ("id", Json.Str t.id);
      ("label", Json.Str (label t.spec));
      ("engine", Json.Str (engine_to_string t.spec.engine));
      ("client", Json.Str t.client);
      ("state", Json.Str (state_to_string t.state));
      ( "fingerprint",
        match t.result with
        | Some r -> Json.Str r.fingerprint
        | None -> Json.Null );
    ]

let result_json r =
  Json.Obj
    [
      ("fingerprint", Json.Str r.fingerprint);
      ("failure_points", Json.Int r.failure_points);
      ("pre_events", Json.Int r.pre_events);
      ("post_events", Json.Int r.post_events);
      ("unique_bugs", Json.Arr (List.map (fun k -> Json.Str k) r.bug_keys));
      ( "tally",
        Json.Obj
          [
            ("races", Json.Int r.races);
            ("semantic", Json.Int r.semantic);
            ("perf", Json.Int r.perf);
            ("errors", Json.Int r.errors);
          ] );
      ( "expect_match",
        match r.expect_match with None -> Json.Null | Some b -> Json.Bool b );
    ]

let status_json t =
  Json.Obj
    ([
       ("type", Json.Str "job");
       ("id", Json.Str t.id);
       ("client", Json.Str t.client);
       ("state", Json.Str (state_to_string t.state));
       ("spec", spec_to_json t.spec);
       ("submitted_at", Json.Float t.submitted_at);
       ("started_at", opt_float t.started_at);
       ("finished_at", opt_float t.finished_at);
     ]
    @ (match t.result with Some r -> [ ("result", result_json r) ] | None -> [])
    @ match t.error with Some e -> [ ("error", Json.Str e) ] | None -> [])

let report_json t =
  match t.result with
  | None -> None
  | Some r ->
    let job =
      Json.Obj
        [
          ("id", Json.Str t.id);
          ("client", Json.Str t.client);
          ("label", Json.Str (label t.spec));
          ("engine", Json.Str (engine_to_string t.spec.engine));
          ("fingerprint", Json.Str r.fingerprint);
        ]
    in
    Some (Engine.report_envelope ~job r.report)
