(* Reference model of [Xfd.Commit_registry]: the straightforward per-byte
   registry, one hash-table entry per commit-variable byte and per
   commit-range byte, with a deep-copy [clone].  It is slow where the
   production registry is fast (clone and registration are O(bytes)), and
   that is the point: every answer follows from the per-byte rules with
   no segment arithmetic to get wrong.  The core.registry property runs
   random operation sequences against both and compares them. *)

module Addr = Xfd_mem.Addr

type var = {
  var_addr : Addr.t;
  var_size : int;
  mutable ranges : (Addr.t * int) list;
  mutable t_prelast : int;
  mutable t_last : int;
  (* Trace indices of the commit writes behind [t_prelast]/[t_last], for
     provenance chains; -1 = none. *)
  mutable ev_prelast : int;
  mutable ev_last : int;
  mutable commits : int;
}

type t = {
  vars : (Addr.t, var) Hashtbl.t;
  var_bytes : (Addr.t, Addr.t) Hashtbl.t; (* byte -> owning variable *)
  range_bytes : (Addr.t, Addr.t) Hashtbl.t; (* byte -> governing variable *)
  mutable pending : (Addr.t * int * int) list; (* deferred commit writes (var, ts, ev) *)
}

exception Overlapping_commit_ranges of Addr.t * Addr.t

let create () =
  {
    vars = Hashtbl.create 64;
    var_bytes = Hashtbl.create 256;
    range_bytes = Hashtbl.create 1024;
    pending = [];
  }

let clone t =
  let vars = Hashtbl.create (Hashtbl.length t.vars) in
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace vars k
        {
          var_addr = v.var_addr;
          var_size = v.var_size;
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
  }

let register_var t ~var ~size =
  if not (Hashtbl.mem t.vars var) then begin
    let v =
      {
        var_addr = var;
        var_size = size;
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
  List.iter (fun (var, ts, ev) -> commit t var ts ev) (List.rev t.pending);
  t.pending <- []

let drop_pending t = t.pending <- []

let unregister_var t ~var =
  match Hashtbl.find_opt t.vars var with
  | None -> ()
  | Some v ->
    Addr.iter_bytes v.var_addr v.var_size (fun a -> Hashtbl.remove t.var_bytes a);
    List.iter
      (fun (a, n) -> Addr.iter_bytes a n (fun b -> Hashtbl.remove t.range_bytes b))
      v.ranges;
    t.pending <- List.filter (fun (w, _, _) -> w <> var) t.pending;
    Hashtbl.remove t.vars var

let is_commit_byte t addr = Hashtbl.mem t.var_bytes addr

let window_for t addr =
  match Hashtbl.find_opt t.range_bytes addr with
  | None -> None
  | Some var ->
    let v = Hashtbl.find t.vars var in
    if v.commits = 0 then Some None
    else Some (Some ((if v.commits = 1 then -1 else v.t_prelast), v.t_last))

let frame_for t addr =
  match Hashtbl.find_opt t.range_bytes addr with
  | None -> None
  | Some var ->
    let v = Hashtbl.find t.vars var in
    if v.commits = 0 then None else Some (v.ev_prelast, v.ev_last)

let var_count t = Hashtbl.length t.vars
