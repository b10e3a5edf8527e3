module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr
module Loc = Xfd_util.Loc
module Json = Xfd_util.Json
module Obs = Xfd_obs.Obs
module Config = Xfd.Config
module Engine = Xfd.Engine
module R = Xfd.Report
module D = Xfd_trace.Domain_model
module Pstate = Xfd.Pstate

type rule =
  | Missing_flush_before_commit_store
  | Flush_without_ordering_fence
  | Store_to_committed_in_epoch
  | Write_not_tx_added
  | Unflushed_at_trace_end
  | Commit_var_never_persisted
  | Redundant_flush
  | Duplicate_tx_add

type severity = Error | Warning | Perf

let all_rules =
  [
    Missing_flush_before_commit_store;
    Flush_without_ordering_fence;
    Store_to_committed_in_epoch;
    Write_not_tx_added;
    Unflushed_at_trace_end;
    Commit_var_never_persisted;
    Redundant_flush;
    Duplicate_tx_add;
  ]

let rule_id = function
  | Missing_flush_before_commit_store -> "missing-flush-before-commit-store"
  | Flush_without_ordering_fence -> "flush-without-ordering-fence"
  | Store_to_committed_in_epoch -> "store-to-committed-data-in-same-epoch"
  | Write_not_tx_added -> "write-not-tx-added-inside-tx"
  | Unflushed_at_trace_end -> "unflushed-at-trace-end"
  | Commit_var_never_persisted -> "commit-var-never-persisted"
  | Redundant_flush -> "statically-redundant-flush"
  | Duplicate_tx_add -> "duplicate-tx-add"

let rule_of_id s = List.find_opt (fun r -> String.equal (rule_id r) s) all_rules

let severity_of = function
  | Missing_flush_before_commit_store | Store_to_committed_in_epoch
  | Write_not_tx_added | Commit_var_never_persisted ->
    Error
  | Flush_without_ordering_fence | Unflushed_at_trace_end -> Warning
  | Redundant_flush | Duplicate_tx_add -> Perf

(* Per-rule reinterpretation under a persistence-domain model.  The flush
   and fence rules never fire under the models that make them vacuous (the
   transfer functions take care of that); the one rule whose *weight*
   changes is [Redundant_flush]: on eADR hardware every flush of written
   data is pure overhead the programmer should delete, so it is promoted
   from a perf note to a warning. *)
let severity_in domain rule =
  match (domain, rule) with
  | D.Eadr, Redundant_flush -> Warning
  | _, rule -> severity_of rule

type finding = {
  rule : rule;
  severity : severity;
  loc : Loc.t;
  addr : Addr.t;
  size : int;
  index : int option;
  related : (string * Loc.t) list;
  hint : string;
}

type report = {
  findings : finding list;
  events : int;
  errors : int;
  warnings : int;
  perf : int;
}

let clean r = r.findings = []
let finding_key f = Printf.sprintf "%s:%s" (rule_id f.rule) (Loc.to_string f.loc)

let c_runs = Obs.Counter.make "lint.runs"
let c_events = Obs.Counter.make "lint.events"
let c_findings = Obs.Counter.make "lint.findings"

let c_fire =
  List.map (fun r -> (r, Obs.Counter.make ("lint.fire." ^ rule_id r))) all_rules

let c_anticipated = Obs.Counter.make "lint.triage.anticipated"
let c_static_miss = Obs.Counter.make "lint.triage.static_miss"
let c_confirmed = Obs.Counter.make "lint.triage.confirmed"
let c_static_only = Obs.Counter.make "lint.triage.static_only"

(* Commit-variable protocol state, layered over {!Track}: the variable's
   byte range, the data ranges associated with it, and the last in-scope
   store to the variable (the "commit store"). *)
type cvar = {
  var_addr : Addr.t;
  mutable var_size : int;
  mutable ranges : (Addr.t * int) list;
  mutable last_store : (Loc.t * int * int) option;  (* loc, epoch, index *)
}

(* End-of-trace findings are grouped (one per offending instruction, not one
   per byte) so reports stay readable on large traces. *)
type group = {
  gloc : Loc.t;
  grelated : (string * Loc.t) list;
  mutable lo : Addr.t;
  mutable n : int;
}

let not_durable = function
  | Pstate.Modified | Pstate.Writeback_pending -> true
  | Pstate.Unmodified | Pstate.Persisted -> false

(* The linter's names for the Figure 9 states it reports. *)
let state_name = function
  | Pstate.Unmodified -> "unwritten"
  | Pstate.Modified -> "dirty"
  | Pstate.Writeback_pending -> "flush-pending"
  | Pstate.Persisted -> "fenced-persistent"

let check_trace ?(domain = D.Adr) trace =
  Obs.Counter.incr c_runs;
  let findings = ref [] in
  let dedup = Hashtbl.create 32 in
  let add f =
    let key = finding_key f in
    if not (Hashtbl.mem dedup key) then begin
      Hashtbl.replace dedup key ();
      findings := f :: !findings
    end
  in
  let mk rule loc addr size index related hint =
    add { rule; severity = severity_in domain rule; loc; addr; size; index; related; hint }
  in
  let index = ref (-1) in
  (* Unlogged-write findings are deferred to the end of their transaction so
     they can co-implicate the TX's no-snapshot (TX_XADD) writers: those
     stores persist only if the transaction commits or rolls back atomically
     — exactly what the unlogged write breaks — so a dynamic race on them
     has the unlogged write as its root cause and triage must match it. *)
  let pending_l4 = ref [] in
  let xadd_ranges = ref [] and xadd_writers = ref [] in
  let track =
    Track.create ~domain
      ~on_hit:(fun hit ->
        match hit with
        | Track.Tx_unlogged_write { loc; addr; size } ->
          pending_l4 := (loc, addr, size, !index) :: !pending_l4
        | Track.Redundant_flush { loc; line; already } ->
          mk Redundant_flush loc line Addr.line_size (Some !index) []
            (match (domain, already) with
            | D.Eadr, _ ->
              "eADR keeps the cache inside the persistence domain — the data \
               was durable at store, so this flush is pure overhead; remove it"
            | _, Pstate.Double_flush ->
              "the line is already writeback-pending — drop this flush or \
               move it after the store it is meant to capture"
            | _, Pstate.Unnecessary_flush ->
              "the line is already fenced-persistent — this flush does no work")
        | Track.Duplicate_tx_add { loc; addr; size } ->
          mk Duplicate_tx_add loc addr size (Some !index) []
            "this range is already in the transaction — each TX_ADD snapshots \
             the object again, drop the duplicate")
      ()
  in
  let flush_l4 () =
    let related = List.rev_map (fun w -> ("tx-writer", w)) !xadd_writers in
    List.iter
      (fun (loc, addr, size, idx) ->
        let related = List.filter (fun (_, w) -> not (Loc.equal w loc)) related in
        mk Write_not_tx_added loc addr size (Some idx) related
          "store hits an object never TX_ADDed in this transaction — add it \
           to the undo log before writing so an abort or crash can roll it \
           back")
      (List.rev !pending_l4);
    pending_l4 := [];
    xadd_ranges := [];
    xadd_writers := []
  in
  let cvars : (Addr.t, cvar) Hashtbl.t = Hashtbl.create 8 in
  (* First associated-range byte that is not yet fenced-persistent. *)
  let unpersisted_range_byte v =
    let found = ref None in
    List.iter
      (fun (ra, rs) ->
        Addr.iter_bytes ra rs (fun a ->
            if Option.is_none !found then
              match Track.info track a with
              | Some i when not_durable i.Track.state -> found := Some (a, i)
              | Some _ | None -> ()))
      v.ranges;
    !found
  in
  (* Commit-protocol rules fire on stores, against the pre-store state. *)
  let on_store loc addr size =
    Hashtbl.iter
      (fun _ v ->
        (match v.last_store with
        | Some (cloc, cepoch, _)
          when cepoch = Track.epoch track
               && List.exists (fun r -> Addr.overlap r (addr, size)) v.ranges ->
          mk Store_to_committed_in_epoch loc addr size (Some !index)
            [ ("commit-store", cloc) ]
            (Printf.sprintf
               "store mutates data already committed at %s in the same fence \
                epoch — fence after the commit store (or move this store \
                before it) so recovery cannot pair new data with the old \
                commit"
               (Loc.to_string cloc))
        | Some _ | None -> ());
        if Addr.overlap (v.var_addr, v.var_size) (addr, size) then begin
          (match unpersisted_range_byte v with
          | Some (ra, i) ->
            mk Missing_flush_before_commit_store loc ra 1 (Some !index)
              (("writer", i.Track.writer)
              ::
              (match i.Track.flush with
              | Some (fl, _) -> [ ("writeback", fl) ]
              | None -> []))
              (Printf.sprintf
                 "commit variable is stored while data written at %s is still \
                  %s — persist the data (flush + fence) before setting the \
                  commit flag"
                 (Loc.to_string i.Track.writer)
                 (state_name i.Track.state))
          | None -> ());
          v.last_store <- Some (loc, Track.epoch track, !index)
        end)
      cvars
  in
  Trace.iter trace (fun ev ->
      incr index;
      (match ev.Event.kind with
      | Event.Commit_var { addr; size } -> (
        match Hashtbl.find_opt cvars addr with
        | Some v -> v.var_size <- size
        | None ->
          Hashtbl.replace cvars addr
            { var_addr = addr; var_size = size; ranges = []; last_store = None })
      | Event.Commit_range { var; addr; size } -> (
        match Hashtbl.find_opt cvars var with
        | Some v -> v.ranges <- (addr, size) :: v.ranges
        | None ->
          (* Range before registration: track the ranges anyway; the
             variable's own extent stays empty until a Commit_var names it. *)
          Hashtbl.replace cvars var
            { var_addr = var; var_size = 0; ranges = [ (addr, size) ]; last_store = None })
      | Event.Write { addr; size } | Event.Nt_write { addr; size } ->
        if Track.checking track then begin
          on_store ev.Event.loc addr size;
          if
            Track.in_tx track
            && List.exists (fun r -> Addr.overlap r (addr, size)) !xadd_ranges
            && not (List.exists (Loc.equal ev.Event.loc) !xadd_writers)
          then xadd_writers := ev.Event.loc :: !xadd_writers
        end
      | Event.Tx_xadd { addr; size } ->
        if Track.in_tx track then xadd_ranges := (addr, size) :: !xadd_ranges
      | _ -> ());
      Track.feed track ev;
      match ev.Event.kind with
      | (Event.Tx_commit | Event.Tx_abort) when not (Track.in_tx track) ->
        flush_l4 ()
      | _ -> ());
  flush_l4 ();
  (* End of trace: first the commit variables (their bytes are then exempt
     from the generic leftovers — the commit-var verdict subsumes them). *)
  let suppressed = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ v ->
      match v.last_store with
      | None -> ()
      | Some (lloc, _, _) ->
        let bad = ref None in
        Addr.iter_bytes v.var_addr v.var_size (fun a ->
            if Option.is_none !bad then
              match Track.info track a with
              | Some i when not_durable i.Track.state -> bad := Some i
              | Some _ | None -> ());
        (match !bad with
        | None -> ()
        | Some i ->
          Addr.iter_bytes v.var_addr v.var_size (fun a ->
              Hashtbl.replace suppressed a ());
          mk Commit_var_never_persisted lloc v.var_addr v.var_size None
            (match i.Track.flush with
            | Some (fl, _) -> [ ("writeback", fl) ]
            | None -> [])
            "the commit store is never made durable — flush the commit \
             variable and fence before the region ends, or recovery cannot \
             trust the flag"))
    cvars;
  (* Generic leftovers, grouped by offending instruction: still-dirty bytes
     indict their writer, captured-but-unfenced bytes indict the writeback
     (or the non-temporal store) that captured them. *)
  let dirty_groups = Hashtbl.create 16 and pending_groups = Hashtbl.create 16 in
  let note tbl loc related a =
    let key = Loc.to_string loc in
    match Hashtbl.find_opt tbl key with
    | Some g ->
      g.lo <- min g.lo a;
      g.n <- g.n + 1
    | None -> Hashtbl.replace tbl key { gloc = loc; grelated = related; lo = a; n = 1 }
  in
  List.iter
    (fun (a, (i : Track.info)) ->
      if not (Hashtbl.mem suppressed a) then
        match i.Track.state with
        | Pstate.Modified -> note dirty_groups i.Track.writer [] a
        | Pstate.Writeback_pending ->
          let floc = match i.Track.flush with Some (fl, _) -> fl | None -> i.Track.writer in
          note pending_groups floc [ ("writer", i.Track.writer) ] a
        | Pstate.Unmodified | Pstate.Persisted -> ())
    (Track.unpersisted track);
  let emit tbl rule hint_of =
    Hashtbl.fold (fun _ g acc -> g :: acc) tbl []
    |> List.sort (fun a b ->
           match Loc.compare a.gloc b.gloc with 0 -> compare a.lo b.lo | c -> c)
    |> List.iter (fun g -> mk rule g.gloc g.lo g.n None g.grelated (hint_of g))
  in
  emit dirty_groups Unflushed_at_trace_end (fun g ->
      Printf.sprintf
        "%d byte(s) stored here never reach a writeback — CLWB the range and \
         SFENCE before the region ends, or recovery may read the old value"
        g.n);
  emit pending_groups Flush_without_ordering_fence (fun g ->
      Printf.sprintf
        "%d captured byte(s) are never ordered by a fence — add an SFENCE so \
         the writeback is guaranteed durable"
        g.n);
  let findings = List.rev !findings in
  let count s = List.length (List.filter (fun f -> f.severity = s) findings) in
  let events = Track.events track in
  Track.release track;
  Obs.Counter.add c_events events;
  Obs.Counter.add c_findings (List.length findings);
  List.iter (fun f -> Obs.Counter.incr (List.assoc f.rule c_fire)) findings;
  { findings; events; errors = count Error; warnings = count Warning; perf = count Perf }

(* Record the setup + pre-failure trace of [p] exactly as [Engine.detect]
   would see it, then release the device. *)
let pre_trace ?(config = Config.default) (p : Engine.program) =
  Xfd_sim.Faults.reset config.Config.faults;
  let dev = Xfd_mem.Pm_device.create () in
  let trace = Trace.create () in
  let ctx =
    Xfd_sim.Ctx.create ~faults:config.Config.faults ~strategy:config.Config.strategy
      ~trust_library:config.Config.trust_library ~stage:Xfd_sim.Ctx.Pre_failure ~dev
      ~trace ()
  in
  p.Engine.setup ctx;
  (match p.Engine.pre ctx with
  | () -> ()
  | exception Xfd_sim.Ctx.Detection_complete -> ());
  Xfd_mem.Pm_device.release dev;
  trace

let check_prog ?(config = Config.default) p =
  check_trace ~domain:config.Config.domain (pre_trace ~config p)

(* ---- differential analysis across persistence-domain models ---- *)

type classification = [ `Stable | `Appears_in of D.t list | `Disappears_in of D.t list ]

type diff_entry = {
  key : string;
  entry_rule : rule;
  entry_loc : Loc.t;
  by_model : (D.t * finding option) list;
  classification : classification;
}

type diff_report = {
  baseline : D.t;
  models : D.t list;
  reports : (D.t * report) list;
  entries : diff_entry list;
}

let diff_domains ?(baseline = D.Adr) ?(models = D.all) trace =
  let models =
    if List.exists (D.equal baseline) models then models else baseline :: models
  in
  let reports = List.map (fun m -> (m, check_trace ~domain:m trace)) models in
  (* Align findings across models by dedup key, in first-appearance order
     (models are scanned in [models] order, findings in report order). *)
  let order = ref [] and seen = Hashtbl.create 32 in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun f ->
          let key = finding_key f in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key f;
            order := key :: !order
          end)
        r.findings)
    reports;
  let entries =
    List.rev_map
      (fun key ->
        let witness = Hashtbl.find seen key in
        let by_model =
          List.map
            (fun (m, r) ->
              (m, List.find_opt (fun f -> String.equal (finding_key f) key) r.findings))
            reports
        in
        let present_in = List.filter_map (fun (m, f) -> Option.map (fun _ -> m) f) by_model in
        let absent_in =
          List.filter (fun m -> not (List.exists (D.equal m) present_in)) models
        in
        let classification =
          if List.exists (D.equal baseline) present_in then
            if absent_in = [] then `Stable else `Disappears_in absent_in
          else `Appears_in present_in
        in
        { key; entry_rule = witness.rule; entry_loc = witness.loc; by_model; classification })
      !order
  in
  { baseline; models; reports; entries }

let diff_clean d = List.for_all (fun (_, r) -> clean r) d.reports

(* Does finding [f] anticipate dynamic bug [b]?  Correctness findings match
   a race/semantic verdict by naming its pre-failure writer (as the indicted
   instruction or a related one); waste findings match a performance verdict
   at the same instruction.  Post-failure errors are never anticipated. *)
let matches f (b : R.bug) =
  let locs = f.loc :: List.map snd f.related in
  match b with
  | R.Race { write_loc; _ } | R.Semantic { write_loc; _ } ->
    f.severity <> Perf && List.exists (Loc.equal write_loc) locs
  | R.Perf { loc; waste; _ } -> (
    match (waste, f.rule) with
    | `Flush _, Redundant_flush | `Duplicate_tx_add, Duplicate_tx_add ->
      Loc.equal f.loc loc
    | _ -> false)
  | R.Post_failure_error _ -> false

let anticipates report b =
  List.filter (fun f -> matches f b) report.findings
  |> List.map (fun f -> rule_id f.rule)
  |> List.sort_uniq String.compare

type triage = {
  program : string;
  lint : report;
  outcome : Engine.outcome;
  dynamic : (string * R.bug * string list) list;
  statics : (finding * string list) list;
  anticipated : int;
  static_misses : int;
  confirmed : int;
  static_only : int;
  post_errors : int;
}

let triage_of ~program report (outcome : Engine.outcome) =
  let post_errors =
    List.length (List.filter R.is_post_error outcome.Engine.unique_bugs)
  in
  let bugs = List.filter (fun b -> not (R.is_post_error b)) outcome.Engine.unique_bugs in
  let dynamic = List.map (fun b -> (R.dedup_key b, b, anticipates report b)) bugs in
  let statics =
    List.map
      (fun f ->
        let keys =
          List.filter_map
            (fun (k, b, _) -> if matches f b then Some k else None)
            dynamic
        in
        (f, keys))
      report.findings
  in
  let anticipated = List.length (List.filter (fun (_, _, ids) -> ids <> []) dynamic) in
  let static_misses = List.length dynamic - anticipated in
  let confirmed = List.length (List.filter (fun (_, ks) -> ks <> []) statics) in
  let static_only = List.length statics - confirmed in
  Obs.Counter.add c_anticipated anticipated;
  Obs.Counter.add c_static_miss static_misses;
  Obs.Counter.add c_confirmed confirmed;
  Obs.Counter.add c_static_only static_only;
  {
    program;
    lint = report;
    outcome;
    dynamic;
    statics;
    anticipated;
    static_misses;
    confirmed;
    static_only;
    post_errors;
  }

(* Score of a failure point = findings whose firing event the point's image
   already contains but the previous point's did not (end-of-trace findings
   charge the last point, whose image is the most complete). *)
let priority_of report fps =
  let idxs = List.filter_map (fun f -> f.index) report.findings in
  let n_end = List.length (List.filter (fun f -> Option.is_none f.index) report.findings) in
  let window prev pos = List.length (List.filter (fun i -> i >= prev && i < pos) idxs) in
  let rec score prev = function
    | [] -> []
    | [ (_, pos) ] -> [ window prev pos + n_end ]
    | (_, pos) :: rest -> window prev pos :: score pos rest
  in
  score 0 fps

let detect_guided ?config ?on_progress p =
  let report = check_prog ?config p in
  let outcome = Engine.detect ?config ?on_progress ~priority:(priority_of report) p in
  (report, outcome)

let severity_string = function Error -> "error" | Warning -> "warning" | Perf -> "perf"

let pp_finding ppf f =
  Format.fprintf ppf "%s[%s] at %a (%a+%d): %s"
    (match f.severity with Error -> "ERROR" | Warning -> "WARNING" | Perf -> "PERF")
    (rule_id f.rule) Loc.pp f.loc Addr.pp f.addr f.size f.hint;
  List.iter (fun (name, l) -> Format.fprintf ppf " [%s %a]" name Loc.pp l) f.related

let pp_report ppf r =
  Format.fprintf ppf "@[<v>lint: %d finding(s) over %d event(s)"
    (List.length r.findings) r.events;
  if r.findings <> [] then
    Format.fprintf ppf " (%d error, %d warning, %d perf)" r.errors r.warnings r.perf;
  List.iter (fun f -> Format.fprintf ppf "@,  %a" pp_finding f) r.findings;
  Format.fprintf ppf "@]"

let classification_strings = function
  | `Stable -> ("stable", [])
  | `Appears_in ms -> ("appears", ms)
  | `Disappears_in ms -> ("disappears", ms)

let pp_diff ppf d =
  Format.fprintf ppf "@[<v>lint domain diff: %d finding key(s); baseline %a; models"
    (List.length d.entries) D.pp d.baseline;
  List.iter (fun m -> Format.fprintf ppf " %a" D.pp m) d.models;
  List.iter
    (fun (m, r) ->
      Format.fprintf ppf "@,  %-8s %d finding(s) (%d error, %d warning, %d perf)"
        (D.to_string m) (List.length r.findings) r.errors r.warnings r.perf)
    d.reports;
  List.iter
    (fun e ->
      let tag, ms = classification_strings e.classification in
      Format.fprintf ppf "@,  %-10s %s" tag e.key;
      (match ms with
      | [] -> ()
      | ms ->
        Format.fprintf ppf " under";
        List.iter (fun m -> Format.fprintf ppf " %a" D.pp m) ms);
      List.iter
        (fun (m, f) ->
          match f with
          | Some f ->
            Format.fprintf ppf " %a=%s" D.pp m (severity_string f.severity)
          | None -> ())
        e.by_model)
    d.entries;
  Format.fprintf ppf "@]"

let pp_triage ppf t =
  Format.fprintf ppf "@[<v>triage %s: %d dynamic verdict(s), %d lint finding(s)"
    t.program (List.length t.dynamic)
    (List.length t.lint.findings);
  Format.fprintf ppf "@,  statically anticipated : %d" t.anticipated;
  Format.fprintf ppf "@,  static misses          : %d" t.static_misses;
  Format.fprintf ppf "@,  dynamically confirmed  : %d" t.confirmed;
  Format.fprintf ppf "@,  static-only findings   : %d" t.static_only;
  Format.fprintf ppf "@,  post-failure errors    : %d" t.post_errors;
  List.iter
    (fun (_, b, ids) -> if ids = [] then Format.fprintf ppf "@,  MISS %a" R.pp_bug b)
    t.dynamic;
  List.iter
    (fun (f, keys) ->
      if keys = [] then Format.fprintf ppf "@,  STATIC-ONLY %a" pp_finding f)
    t.statics;
  Format.fprintf ppf "@]"

let loc_json (l : Loc.t) = Json.Obj [ ("file", Json.Str l.file); ("line", Json.Int l.line) ]

let finding_to_json f =
  Json.Obj
    [
      ("rule", Json.Str (rule_id f.rule));
      ("severity", Json.Str (severity_string f.severity));
      ("file", Json.Str f.loc.Loc.file);
      ("line", Json.Int f.loc.Loc.line);
      ("addr", Json.Int f.addr);
      ("size", Json.Int f.size);
      ("index", match f.index with Some i -> Json.Int i | None -> Json.Null);
      ( "related",
        Json.Arr
          (List.map
             (fun (name, l) ->
               match loc_json l with
               | Json.Obj fields -> Json.Obj (("role", Json.Str name) :: fields)
               | j -> j)
             f.related) );
      ("hint", Json.Str f.hint);
    ]

let report_to_json r =
  Json.Obj
    [
      ("findings", Json.Arr (List.map finding_to_json r.findings));
      ("events", Json.Int r.events);
      ("errors", Json.Int r.errors);
      ("warnings", Json.Int r.warnings);
      ("perf", Json.Int r.perf);
      ("clean", Json.Bool (clean r));
    ]

let diff_to_json d =
  let models_json ms = Json.Arr (List.map (fun m -> Json.Str (D.to_string m)) ms) in
  Json.Obj
    [
      ("baseline", Json.Str (D.to_string d.baseline));
      ("models", models_json d.models);
      ( "reports",
        Json.Obj (List.map (fun (m, r) -> (D.to_string m, report_to_json r)) d.reports) );
      ( "entries",
        Json.Arr
          (List.map
             (fun e ->
               let tag, ms = classification_strings e.classification in
               Json.Obj
                 [
                   ("key", Json.Str e.key);
                   ("rule", Json.Str (rule_id e.entry_rule));
                   ("file", Json.Str e.entry_loc.Loc.file);
                   ("line", Json.Int e.entry_loc.Loc.line);
                   ("classification", Json.Str tag);
                   ("models", models_json ms);
                   ( "present_in",
                     models_json
                       (List.filter_map
                          (fun (m, f) -> Option.map (fun _ -> m) f)
                          e.by_model) );
                   ( "severity",
                     Json.Obj
                       (List.filter_map
                          (fun (m, f) ->
                            Option.map
                              (fun f ->
                                (D.to_string m, Json.Str (severity_string f.severity)))
                              f)
                          e.by_model) );
                 ])
             d.entries) );
      ("clean", Json.Bool (diff_clean d));
    ]

let triage_to_json t =
  Json.Obj
    [
      ("program", Json.Str t.program);
      ("lint", report_to_json t.lint);
      ("anticipated", Json.Int t.anticipated);
      ("static_misses", Json.Int t.static_misses);
      ("confirmed", Json.Int t.confirmed);
      ("static_only", Json.Int t.static_only);
      ("post_errors", Json.Int t.post_errors);
      ( "dynamic",
        Json.Arr
          (List.map
             (fun (key, b, ids) ->
               Json.Obj
                 [
                   ("key", Json.Str key);
                   ("bug", R.bug_to_json b);
                   ("anticipated_by", Json.Arr (List.map (fun i -> Json.Str i) ids));
                 ])
             t.dynamic) );
      ( "statics",
        Json.Arr
          (List.map
             (fun (f, keys) ->
               Json.Obj
                 [
                   ("finding", finding_to_json f);
                   ("confirmed_by", Json.Arr (List.map (fun k -> Json.Str k) keys));
                 ])
             t.statics) );
    ]
