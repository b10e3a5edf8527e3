module Addr = Xfd_mem.Addr
module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Loc = Xfd_util.Loc
module Obs = Xfd_obs.Obs
module History = Xfd_forensics.History
module Provenance = Xfd_forensics.Provenance

let c_replayed = Obs.Counter.make "detector.replayed_events"
let c_checked_bytes = Obs.Counter.make "detector.checked_bytes"

(* Bytes stored by replayed pre-failure writes inside the RoI: the
   denominator of the coverage report's read-checked ratio. *)
let c_written_bytes = Obs.Counter.make "detector.written_bytes"

(* Bug *emissions*: one per deduplicated report of each detector instance,
   so the same programming error surfacing at several failure points counts
   once per failure point.  [bugs.post_failure_error] lives in the engine. *)
let c_bug_race = Obs.Counter.make "bugs.race"
let c_bug_semantic = Obs.Counter.make "bugs.semantic"
let c_bug_perf = Obs.Counter.make "bugs.perf"

type t = {
  shadow : Shadow_pm.t;
  registry : Commit_registry.t;
  check_perf : bool;
  defer_commits : bool;
  forensics : bool;
  post : bool;
  mutable ts : int;
  mutable in_roi : bool;
  mutable skip_depth : int;
  mutable tx_active : bool;
  mutable tx_added : (Addr.t * int) list;
  mutable bugs_rev : Report.bug list;
  (* Keys of the bugs reported so far, created by the first [record]:
     most forks report nothing. *)
  mutable dedup : (string, unit) Hashtbl.t option;
  (* Bytes a post-failure read already checked.  Scratch owned by the base
     detector: every fork shares it, and forking clears it (as it does the
     shadow's journal and the registry's fork scratch). *)
  checked : Xfd_util.Int_table.t;
  (* Traces provenance chains resolve against: the shared pre-failure trace
     (set when the base detector replays it; inherited by forks) and the
     trace currently being replayed into this instance. *)
  mutable pre_trace : Trace.t option;
  mutable cur_trace : Trace.t option;
}

let create ?(check_perf = true) ?(commit_at = `Write) ?(forensics = false)
    ?(domain = Xfd_trace.Domain_model.Adr) () =
  {
    shadow = Shadow_pm.create ~forensics ~domain ();
    registry = Commit_registry.create ();
    check_perf;
    defer_commits = (commit_at = `Persist);
    forensics;
    post = false;
    ts = 0;
    in_roi = false;
    skip_depth = 0;
    tx_active = false;
    tx_added = [];
    bugs_rev = [];
    dedup = None;
    checked = Xfd_util.Int_table.create 64;
    pre_trace = None;
    cur_trace = None;
  }

let fork_for_post t =
  Xfd_util.Int_table.clear t.checked;
  let registry = Commit_registry.fork t.registry in
  (* In persist-time mode, commit writes that never persisted before the
     failure are discarded: the strict image does not contain them. *)
  if t.defer_commits then Commit_registry.drop_pending registry;
  {
    shadow = Shadow_pm.overlay t.shadow;
    registry;
    check_perf = t.check_perf;
    defer_commits = t.defer_commits;
    forensics = t.forensics;
    post = true;
    ts = t.ts;
    (* The post-failure program runs from its own entry point: RoI and skip
       annotations come from its own trace. *)
    in_roi = false;
    skip_depth = 0;
    tx_active = false;
    tx_added = [];
    bugs_rev = [];
    dedup = None;
    checked = t.checked;
    pre_trace = t.pre_trace;
    cur_trace = None;
  }

let bugs t = List.rev t.bugs_rev
let timestamp t = t.ts
let probe t addr = Shadow_pm.find t.shadow addr
let registry t = t.registry
let shadow t = t.shadow
let rewind t =
  Shadow_pm.rewind t.shadow;
  Commit_registry.rewind t.registry
let release t = Shadow_pm.release t.shadow

let record t bug =
  let key = Report.dedup_key bug in
  let dedup =
    match t.dedup with
    | Some d -> d
    | None ->
      let d = Hashtbl.create 16 in
      t.dedup <- Some d;
      d
  in
  if not (Hashtbl.mem dedup key) then begin
    Hashtbl.replace dedup key ();
    (match bug with
    | Report.Race _ -> Obs.Counter.incr c_bug_race
    | Report.Semantic _ -> Obs.Counter.incr c_bug_semantic
    | Report.Perf _ -> Obs.Counter.incr c_bug_perf
    | Report.Post_failure_error _ -> ());
    t.bugs_rev <- bug :: t.bugs_rev
  end

let checking t = t.in_roi && t.skip_depth = 0

(* Outcome of checking one byte of a post-failure read. *)
type finding = Ok_read | Racy of { writer : Loc.t; uninit : bool } | Inconsistent of { writer : Loc.t; status : Cstate.t }

(* Reads the shadow field by field ({!Shadow_pm.packed} and friends), so
   a byte that checks clean allocates nothing.  Commit-variable bytes are
   benign races, never reported.  Only the branches that would otherwise
   report ask the registry whether a byte is one: every other branch
   answers [Ok_read] either way. *)
let check_byte t a =
  if Xfd_util.Int_table.mem t.checked a then Ok_read
  else begin
    Xfd_util.Int_table.replace t.checked a 0;
    let sh = t.shadow in
    let packed = Shadow_pm.packed sh a in
    if packed = 0 then Ok_read (* never touched before the failure *)
    else if Shadow_pm.post_written packed then Ok_read
    else if Shadow_pm.uninit packed then
      (* An allocated-but-never-initialised location cannot be
         semantically consistent, whatever commit window covers it. *)
      if Commit_registry.is_commit_byte t.registry a then Ok_read
      else Racy { writer = Shadow_pm.writer sh a; uninit = true }
    else begin
      (* Eq. 3 orders W(m) before C(x) by *persistence*: a byte can only
         count as semantically consistent once it is guaranteed durable,
         so the persistence check comes first (this is also what the
         paper's Figure 11 walkthrough reports at F1: modified data
         races even though its commit window looks right). *)
      match Shadow_pm.pstate packed with
      | Pstate.Modified | Pstate.Writeback_pending ->
        if Commit_registry.is_commit_byte t.registry a then Ok_read
        else Racy { writer = Shadow_pm.writer sh a; uninit = false }
      | Pstate.Unmodified -> Ok_read
      | Pstate.Persisted -> begin
        match Commit_registry.window_for t.registry a with
        | None -> Ok_read
        | Some _ when Commit_registry.is_commit_byte t.registry a -> Ok_read
        | Some None ->
          Inconsistent { writer = Shadow_pm.writer sh a; status = Cstate.not_committed }
        | Some (Some (t_prelast, t_last)) -> begin
          match Cstate.classify ~t_prelast ~t_last ~tlast:(Shadow_pm.tlast sh a) with
          | Cstate.Consistent -> Ok_read
          | (Cstate.Uncommitted | Cstate.Stale) as s ->
            Inconsistent { writer = Shadow_pm.writer sh a; status = s }
        end
      end
    end
  end

let persistence_name = function
  | Pstate.Modified -> "modified"
  | Pstate.Writeback_pending -> "writeback-pending"
  | Pstate.Persisted -> "persisted"
  | Pstate.Unmodified -> "unmodified"

(* Materialise the provenance chain for a racy/inconsistent read of
   [addr..addr+size): the cell's bounded history (allocation, retained
   writes, writeback, fence), the commit writes that framed the Eq. 3
   window for semantic verdicts, and the reading event — each resolved
   against the retained traces, with timeline excerpts. *)
let provenance_for_read t ~addr ~size ~read_ev finding =
  if not t.forensics then None
  else
    match (t.pre_trace, Shadow_pm.find t.shadow addr) with
    | Some pre, Some c -> begin
      match c.Shadow_pm.hist with
      | None -> None
      | Some h ->
        let spec = ref [] in
        let add stage role idx =
          if idx >= 0 then spec := (stage, role, idx) :: !spec
        in
        (match History.alloc_site h with
        | Some i -> add Provenance.Pre Provenance.Alloc i
        | None -> ());
        List.iter (fun i -> add Provenance.Pre Provenance.Write i) (History.writes h);
        (match History.last_flush h with
        | Some i -> add Provenance.Pre Provenance.Writeback i
        | None -> ());
        (match History.last_fence h with
        | Some i -> add Provenance.Pre Provenance.Fence i
        | None -> ());
        let window, verdict =
          match finding with
          | Racy { uninit = true; _ } -> (None, "race-uninit")
          | Racy _ -> (None, "race")
          | Inconsistent { status; _ } ->
            let window =
              match Commit_registry.window_for t.registry addr with
              | Some (Some w) -> Some w
              | Some None | None -> None
            in
            (match Commit_registry.frame_for t.registry addr with
            | Some (ev_prelast, ev_last) ->
              add Provenance.Pre Provenance.Commit_prelast ev_prelast;
              add Provenance.Pre Provenance.Commit_last ev_last
            | None -> ());
            ( window,
              match status with
              | Cstate.Stale -> "semantic-stale"
              | Cstate.Uncommitted | Cstate.Consistent -> "semantic-uncommitted" )
          | Ok_read -> (None, "ok")
        in
        add Provenance.Post Provenance.Read read_ev;
        Some
          (Provenance.build ~pre ?post:t.cur_trace ?window ~tlast:c.Shadow_pm.tlast
             ~addr ~size ~verdict
             ~persistence:(persistence_name c.Shadow_pm.pstate)
             (List.rev !spec))
    end
    | (Some _ | None), _ -> None

(* Chain for a performance bug: the wasted operation itself plus the line's
   write/writeback/fence history that made it redundant. *)
let provenance_for_waste t ~addr ~size ~ev ~verdict ~persistence =
  if not t.forensics then None
  else
    match t.pre_trace with
    | None -> None
    | Some pre ->
      let stage = if t.post then Provenance.Post else Provenance.Pre in
      let spec = ref [ (stage, Provenance.Wasted_flush, ev) ] in
      let add role idx =
        if idx >= 0 then spec := (Provenance.Pre, role, idx) :: !spec
      in
      let rep = ref None in
      Addr.iter_bytes addr size (fun a ->
          match !rep with
          | Some _ -> ()
          | None -> begin
            match Shadow_pm.find t.shadow a with
            | Some { Shadow_pm.hist = Some h; _ } -> rep := Some h
            | Some _ | None -> ()
          end);
      (match !rep with
      | Some h ->
        (match History.last_write h with Some i -> add Provenance.Write i | None -> ());
        (match History.last_flush h with Some i -> add Provenance.Writeback i | None -> ());
        (match History.last_fence h with Some i -> add Provenance.Fence i | None -> ())
      | None -> ());
      Some
        (Provenance.build ~pre
           ?post:(if t.post then t.cur_trace else None)
           ~addr ~size ~verdict ~persistence (List.rev !spec))

let report_finding t ~loc ~ev start len = function
  | Ok_read -> ()
  | Racy { writer; uninit } as f ->
    let provenance = provenance_for_read t ~addr:start ~size:len ~read_ev:ev f in
    record t
      (Report.Race
         { addr = start; size = len; read_loc = loc; write_loc = writer; uninit; provenance })
  | Inconsistent { writer; status } as f ->
    let provenance = provenance_for_read t ~addr:start ~size:len ~read_ev:ev f in
    record t
      (Report.Semantic
         { addr = start; size = len; read_loc = loc; write_loc = writer; status; provenance })

(* Check a post-failure read, coalescing contiguous bytes with the same
   verdict into a single report.  Plain loops, not closures: a read that
   checks clean allocates nothing.  Each newly checked byte joins
   [checked], so its growth is the read's [detector.checked_bytes]. *)
let check_read t ~loc ~ev addr size =
  let checked_before = Xfd_util.Int_table.length t.checked in
  let pending = ref Ok_read and start = ref addr and len = ref 0 in
  for a = addr to addr + size - 1 do
    let f = check_byte t a in
    let same = match (f, !pending) with Ok_read, Ok_read -> true | _ -> f = !pending in
    if same && !len > 0 then incr len
    else begin
      report_finding t ~loc ~ev !start !len !pending;
      pending := f;
      start := a;
      len := 1
    end
  done;
  report_finding t ~loc ~ev !start !len !pending;
  Obs.Counter.add c_checked_bytes (Xfd_util.Int_table.length t.checked - checked_before)

let on_write t ~loc ~ev ~nt addr size =
  Commit_registry.on_write t.registry ~defer:t.defer_commits ~addr ~size ~ts:t.ts ~ev;
  if (not t.post) && checking t then Obs.Counter.add c_written_bytes size;
  Shadow_pm.write t.shadow addr size ~ts:t.ts ~ev ~loc ~nt ~post:t.post

let on_flush t ~loc ~ev addr =
  let line = Addr.line_of addr in
  match Shadow_pm.flush_line t.shadow line ~ev with
  | `Had_modified | `Clean -> ()
  | `Waste w ->
    if t.check_perf && checking t then begin
      let verdict, persistence =
        match w with
        | Pstate.Double_flush -> ("perf-redundant-writeback", "writeback-pending")
        | Pstate.Unnecessary_flush -> ("perf-unnecessary-writeback", "persisted")
      in
      let provenance =
        provenance_for_waste t ~addr:line ~size:Addr.line_size ~ev ~verdict ~persistence
      in
      record t (Report.Perf { addr = line; loc; waste = `Flush w; provenance })
    end

let on_tx_add t ~loc ~ev addr size =
  if t.tx_active then begin
    if
      t.check_perf && checking t
      && List.exists (fun r -> Addr.overlap r (addr, size)) t.tx_added
    then begin
      let provenance =
        provenance_for_waste t ~addr ~size ~ev ~verdict:"perf-duplicate-tx-add"
          ~persistence:"n/a"
      in
      record t (Report.Perf { addr; loc; waste = `Duplicate_tx_add; provenance })
    end;
    t.tx_added <- (addr, size) :: t.tx_added
  end

let replay_event t (ev : Event.t) =
  let loc = ev.Event.loc in
  let seq = ev.Event.seq in
  match ev.Event.kind with
  | Event.Write { addr; size } -> on_write t ~loc ~ev:seq ~nt:false addr size
  | Event.Nt_write { addr; size } -> on_write t ~loc ~ev:seq ~nt:true addr size
  | Event.Read { addr; size } -> if t.post && checking t then check_read t ~loc ~ev:seq addr size
  | Event.Clwb { addr } | Event.Clflush { addr } | Event.Clflushopt { addr } ->
    on_flush t ~loc ~ev:seq addr
  | Event.Sfence | Event.Mfence ->
    Shadow_pm.fence t.shadow ~ev:seq;
    if t.defer_commits then Commit_registry.apply_pending t.registry;
    t.ts <- t.ts + 1
  | Event.Gpf ->
    (* The barrier only exists where the model persists at it; elsewhere
       the instruction is unavailable and the event is inert (a program
       relying on it is exactly as buggy as one that never flushed). *)
    if Pstate.persists_at_gpf (Shadow_pm.domain t.shadow) then begin
      Shadow_pm.gpf t.shadow ~ev:seq;
      if t.defer_commits then Commit_registry.apply_pending t.registry;
      t.ts <- t.ts + 1
    end
  | Event.Tx_begin ->
    t.tx_active <- true;
    t.tx_added <- []
  | Event.Tx_add { addr; size } -> on_tx_add t ~loc ~ev:seq addr size
  | Event.Tx_xadd _ -> ()
  | Event.Tx_commit | Event.Tx_abort ->
    t.tx_active <- false;
    t.tx_added <- []
  | Event.Tx_alloc { addr; size; zeroed } ->
    if not zeroed then Shadow_pm.mark_alloc_raw t.shadow addr size ~ev:seq
  | Event.Tx_free _ -> ()
  | Event.Commit_var { addr; size } -> Commit_registry.register_var t.registry ~var:addr ~size
  | Event.Commit_range { var; addr; size } ->
    Commit_registry.register_range t.registry ~var ~addr ~size
  | Event.Roi_begin -> t.in_roi <- true
  | Event.Roi_end -> t.in_roi <- false
  | Event.Skip_detection_begin -> t.skip_depth <- t.skip_depth + 1
  | Event.Skip_detection_end -> t.skip_depth <- max 0 (t.skip_depth - 1)
  | Event.Marker _ -> ()

let replay t trace ~from ~upto =
  if not (Shadow_pm.live t.shadow) then
    invalid_arg "Detector.replay: fork used after its divergence was rewound";
  if t.forensics then begin
    if not t.post then t.pre_trace <- Some trace;
    t.cur_trace <- Some trace
  end;
  let upto = min upto (Trace.length trace) in
  Obs.Counter.add c_replayed (max 0 (upto - from));
  Trace.iter_range trace ~from ~upto (replay_event t)
