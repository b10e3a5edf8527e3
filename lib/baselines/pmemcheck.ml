module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr

type issue = {
  loc : Xfd_util.Loc.t;
  addr : Xfd_mem.Addr.t;
  bytes : int;
  kind : [ `Not_persisted | `Superfluous_flush ];
}

type result = { issues : issue list; stores_tracked : int }

let check trace =
  let dirty : (Addr.t, Xfd_util.Loc.t) Hashtbl.t = Hashtbl.create 1024 in
  let pending : (Addr.t, Xfd_util.Loc.t) Hashtbl.t = Hashtbl.create 1024 in
  let superfluous : (string, issue) Hashtbl.t = Hashtbl.create 16 in
  let stores = ref 0 in
  Trace.iter trace (fun ev ->
      let loc = ev.Event.loc in
      match ev.Event.kind with
      | Event.Write { addr; size } | Event.Nt_write { addr; size } ->
        incr stores;
        Addr.iter_bytes addr size (fun a ->
            Hashtbl.remove pending a;
            Hashtbl.replace dirty a loc)
      | Event.Clwb { addr } | Event.Clflush { addr } | Event.Clflushopt { addr } -> begin
        let line = Addr.line_of addr in
        let had = ref false in
        Addr.iter_bytes line Addr.line_size (fun a ->
            match Hashtbl.find_opt dirty a with
            | Some wloc ->
              had := true;
              Hashtbl.remove dirty a;
              Hashtbl.replace pending a wloc
            | None -> ());
        if not !had then begin
          let key = Xfd_util.Loc.to_string loc in
          if not (Hashtbl.mem superfluous key) then
            Hashtbl.replace superfluous key
              { loc; addr = line; bytes = Addr.line_size; kind = `Superfluous_flush }
        end
      end
      | Event.Sfence | Event.Mfence -> Hashtbl.reset pending
      | Event.Read _ -> ()
      (* pmemcheck is an ADR-era tool: the CXL GPF barrier does not exist
         on the platforms it models, so the event is inert here. *)
      | Event.Gpf | Event.Tx_begin | Event.Tx_add _ | Event.Tx_xadd _ | Event.Tx_commit
      | Event.Tx_abort | Event.Tx_alloc _ | Event.Tx_free _ | Event.Commit_var _
      | Event.Commit_range _ | Event.Roi_begin | Event.Roi_end
      | Event.Skip_detection_begin | Event.Skip_detection_end | Event.Marker _ ->
        ());
  (* Group leftover bytes by the store site that produced them. *)
  let by_site : (string, Addr.t * Xfd_util.Loc.t * int) Hashtbl.t = Hashtbl.create 16 in
  let note a wloc =
    let key = Xfd_util.Loc.to_string wloc in
    match Hashtbl.find_opt by_site key with
    | Some (first, l, n) -> Hashtbl.replace by_site key (min first a, l, n + 1)
    | None -> Hashtbl.replace by_site key (a, wloc, 1)
  in
  Hashtbl.iter note dirty;
  Hashtbl.iter note pending;
  let issues =
    Hashtbl.fold
      (fun _ (addr, loc, bytes) acc -> { loc; addr; bytes; kind = `Not_persisted } :: acc)
      by_site []
  in
  let issues = issues @ Hashtbl.fold (fun _ i acc -> i :: acc) superfluous [] in
  { issues; stores_tracked = !stores }

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
