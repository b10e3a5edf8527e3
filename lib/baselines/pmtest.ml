module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr
module Track = Xfd_lint.Track

type violation = {
  loc : Xfd_util.Loc.t;
  addr : Xfd_mem.Addr.t;
  size : int;
  rule : string;
}

type result = { violations : violation list; events_checked : int }

(* The state machine (byte-granular persistence with line-granular flushes,
   TX logging, RoI/skip scoping) lives in {!Xfd_lint.Track}, shared with the
   linter so the two rule sets cannot drift; this module only maps the
   tracker's hits onto PMTest's historical rule strings.  A flush of an
   already-persisted line is not a PMTest rule (the original tool stops
   tracking a byte once it is fenced), so [`Persisted] hits are dropped. *)
let check trace =
  let violations = ref [] in
  let dedup = Hashtbl.create 32 in
  let record loc addr size rule =
    let key = Printf.sprintf "%s:%s" (Xfd_util.Loc.to_string loc) rule in
    if not (Hashtbl.mem dedup key) then begin
      Hashtbl.replace dedup key ();
      violations := { loc; addr; size; rule } :: !violations
    end
  in
  let tr =
    Track.create
      ~on_hit:(fun hit ->
        match hit with
        | Track.Tx_unlogged_write { loc; addr; size } ->
          record loc addr size "write inside transaction to object not added to it"
        | Track.Redundant_flush { loc; line; already = Xfd.Pstate.Double_flush } ->
          record loc line Addr.line_size "redundant writeback (line already pending)"
        | Track.Redundant_flush { already = Xfd.Pstate.Unnecessary_flush; _ } -> ()
        | Track.Duplicate_tx_add { loc; addr; size } ->
          record loc addr size "duplicated TX_ADD for the same object")
      ()
  in
  Trace.iter trace (Track.feed tr);
  (* End of execution: everything modified must have reached PM. *)
  let leftovers = Hashtbl.create 16 in
  List.iter
    (fun (a, (i : Track.info)) ->
      Hashtbl.replace leftovers (Xfd_util.Loc.to_string i.Track.writer) (a, i.Track.writer))
    (Track.unpersisted tr);
  Hashtbl.iter
    (fun _ (a, wloc) -> record wloc a 1 "PM update not persisted by end of execution")
    leftovers;
  let events_checked = Track.events tr in
  Track.release tr;
  { violations = List.rev !violations; events_checked }

let run program =
  let dev = Xfd_mem.Pm_device.create () in
  let trace = Trace.create () in
  let ctx = Xfd_sim.Ctx.create ~stage:Xfd_sim.Ctx.Pre_failure ~dev ~trace () in
  let t0 = Unix.gettimeofday () in
  program.Xfd.Engine.setup ctx;
  (match program.Xfd.Engine.pre ctx with
  | () -> ()
  | exception Xfd_sim.Ctx.Detection_complete -> ());
  let result = check trace in
  (result, Unix.gettimeofday () -. t0)

let pp_violation ppf { loc; addr; size; rule } =
  Format.fprintf ppf "PMTest violation: %s at %a (%a+%d)" rule Xfd_util.Loc.pp loc
    Xfd_mem.Addr.pp addr size
