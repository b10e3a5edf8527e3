(* Reference model of [Xfd.Commit_registry]: the straightforward per-byte
   registry, one hash-table entry per commit-variable byte and per
   commit-range byte, whose [fork] is a deep copy.  It is slow where the
   production registry is fast (fork and registration are O(bytes)), and
   that is the point: every answer follows from the per-byte rules with
   no segment arithmetic, layering or scratch to get wrong.  The
   core.registry property runs random operation sequences against both
   and compares them. *)

module Addr = Xfd_mem.Addr

type var = {
  mutable ranges : (Addr.t * int) list;
  mutable t_prelast : int;
  mutable t_last : int;
  (* Trace indices of the commit writes behind [t_prelast]/[t_last], for
     provenance chains; -1 = none. *)
  mutable ev_prelast : int;
  mutable ev_last : int;
  mutable commits : int;
}

(* Forks taken from one base, and the one still usable (0 = none). *)
type lineage = { mutable forks : int; mutable live : int }

type t = {
  vars : (Addr.t, var) Hashtbl.t;
  var_bytes : (Addr.t, Addr.t) Hashtbl.t; (* byte -> owning variable *)
  range_bytes : (Addr.t, Addr.t) Hashtbl.t; (* byte -> governing variable *)
  mutable pending : (Addr.t * int * int) list; (* deferred commit writes (var, ts, ev) *)
  lineage : lineage;
  gen : int; (* 0 = a base, else the fork's number *)
}

exception Overlapping_commit_ranges of Addr.t * Addr.t

let create () =
  {
    vars = Hashtbl.create 64;
    var_bytes = Hashtbl.create 256;
    range_bytes = Hashtbl.create 1024;
    pending = [];
    lineage = { forks = 0; live = 0 };
    gen = 0;
  }

(* Every operation on a fork that a newer fork or a rewind retired
   raises. *)
let usable t =
  if t.gen <> 0 && t.lineage.live <> t.gen then
    invalid_arg "Registry_model: fork used after a newer fork or its rewind"

let fork t =
  if t.gen <> 0 then invalid_arg "Registry_model.fork: a fork cannot be forked";
  t.lineage.forks <- t.lineage.forks + 1;
  t.lineage.live <- t.lineage.forks;
  let vars = Hashtbl.create (Hashtbl.length t.vars) in
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace vars k
        {
          ranges = v.ranges;
          t_prelast = v.t_prelast;
          t_last = v.t_last;
          ev_prelast = v.ev_prelast;
          ev_last = v.ev_last;
          commits = v.commits;
        })
    t.vars;
  {
    vars;
    var_bytes = Hashtbl.copy t.var_bytes;
    range_bytes = Hashtbl.copy t.range_bytes;
    pending = t.pending;
    lineage = t.lineage;
    gen = t.lineage.forks;
  }

let rewind t = if t.gen <> 0 && t.lineage.live = t.gen then t.lineage.live <- 0

let register_var t ~var ~size =
  usable t;
  if not (Hashtbl.mem t.vars var) then begin
    let v =
      {
        ranges = [];
        t_prelast = -1;
        t_last = -1;
        ev_prelast = -1;
        ev_last = -1;
        commits = 0;
      }
    in
    Hashtbl.replace t.vars var v;
    Addr.iter_bytes var size (fun a -> Hashtbl.replace t.var_bytes a var)
  end

let register_range t ~var ~addr ~size =
  register_var t ~var ~size:8;
  let v = Hashtbl.find t.vars var in
  if not (List.exists (fun (a, n) -> a = addr && n = size) v.ranges) then begin
    (* Eq. 2: sets associated with distinct commit variables are disjoint. *)
    Addr.iter_bytes addr size (fun a ->
        match Hashtbl.find_opt t.range_bytes a with
        | Some owner when owner <> var -> raise (Overlapping_commit_ranges (owner, var))
        | Some _ | None -> ());
    v.ranges <- (addr, size) :: v.ranges;
    Addr.iter_bytes addr size (fun a -> Hashtbl.replace t.range_bytes a var)
  end

let commit t var ts ev =
  let v = Hashtbl.find t.vars var in
  v.t_prelast <- v.t_last;
  v.t_last <- ts;
  v.ev_prelast <- v.ev_last;
  v.ev_last <- ev;
  v.commits <- v.commits + 1

let on_write t ~defer ~addr ~size ~ts ~ev =
  usable t;
  (* A write spanning several commit variables commits each of them once. *)
  let touched = ref [] in
  Addr.iter_bytes addr size (fun a ->
      match Hashtbl.find_opt t.var_bytes a with
      | Some var when not (List.mem var !touched) -> touched := var :: !touched
      | Some _ | None -> ());
  List.iter
    (fun var ->
      if defer then t.pending <- (var, ts, ev) :: t.pending else commit t var ts ev)
    !touched

let apply_pending t =
  usable t;
  List.iter (fun (var, ts, ev) -> commit t var ts ev) (List.rev t.pending);
  t.pending <- []

let drop_pending t =
  usable t;
  t.pending <- []

let is_commit_byte t addr =
  usable t;
  Hashtbl.mem t.var_bytes addr

let window_for t addr =
  usable t;
  match Hashtbl.find_opt t.range_bytes addr with
  | None -> None
  | Some var ->
    let v = Hashtbl.find t.vars var in
    if v.commits = 0 then Some None
    else Some (Some ((if v.commits = 1 then -1 else v.t_prelast), v.t_last))

let frame_for t addr =
  usable t;
  match Hashtbl.find_opt t.range_bytes addr with
  | None -> None
  | Some var ->
    let v = Hashtbl.find t.vars var in
    if v.commits = 0 then None else Some (v.ev_prelast, v.ev_last)

let var_count t =
  usable t;
  Hashtbl.length t.vars
