module Addr = Xfd_mem.Addr
module Imap = Map.Make (Int)

(* Immutable: a commit replaces the record, so versions shared between a
   registry and its clones never change under either. *)
type var = {
  var_addr : Addr.t;
  var_size : int;
  ranges : (Addr.t * int) list;
  t_prelast : int;
  t_last : int;
  (* Trace indices of the commit writes behind [t_prelast]/[t_last], for
     provenance chains; -1 = none. *)
  ev_prelast : int;
  ev_last : int;
  commits : int;
}

(* Byte ownership as disjoint segments: [start -> (stop, owner)] covers the
   bytes [start, stop). *)
type segs = (Addr.t * Addr.t) Imap.t

type state = {
  vars : var Imap.t;
  var_bytes : segs; (* byte -> owning variable *)
  range_bytes : segs; (* byte -> governing variable *)
  pending : (Addr.t * int * int) list; (* deferred commit writes (var, ts, ev) *)
}

(* Every update builds a new [state], so a clone is a copy of this pointer. *)
type t = { mutable s : state }

exception Overlapping_commit_ranges of Addr.t * Addr.t

(* ---- segment maps ---- *)

let seg_find segs a =
  match Imap.find_last_opt (fun start -> start <= a) segs with
  | Some (_, (stop, owner)) when a < stop -> Some owner
  | Some _ | None -> None

(* Fold [f start stop owner] over the segments overlapping [lo, hi), in
   address order. *)
let seg_fold_overlaps f segs lo hi acc =
  if hi <= lo then acc
  else
    let acc =
      match Imap.find_last_opt (fun start -> start < lo) segs with
      | Some (start, (stop, owner)) when stop > lo -> f start stop owner acc
      | Some _ | None -> acc
    in
    let rec from acc seq =
      match seq () with
      | Seq.Cons ((start, (stop, owner)), rest) when start < hi ->
        from (f start stop owner acc) rest
      | Seq.Cons _ | Seq.Nil -> acc
    in
    from acc (Imap.to_seq_from lo segs)

(* Unbind [lo, hi), whoever owns it; overlapping segments keep the parts
   outside the span. *)
let seg_clear segs lo hi =
  seg_fold_overlaps
    (fun start stop owner acc ->
      let acc = Imap.remove start acc in
      let acc = if start < lo then Imap.add start (lo, owner) acc else acc in
      if stop > hi then Imap.add hi (stop, owner) acc else acc)
    segs lo hi segs

(* Bind [lo, hi) to [owner]: the last registration of a byte wins. *)
let seg_set segs lo hi owner =
  if hi <= lo then segs else Imap.add lo (hi, owner) (seg_clear segs lo hi)

(* ---- registry ---- *)

let create () =
  {
    s =
      { vars = Imap.empty; var_bytes = Imap.empty; range_bytes = Imap.empty; pending = [] };
  }

let clone t = { s = t.s }

let register_var t ~var ~size =
  let s = t.s in
  if not (Imap.mem var s.vars) then begin
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
    t.s <-
      { s with vars = Imap.add var v s.vars; var_bytes = seg_set s.var_bytes var (var + size) var }
  end

let register_range t ~var ~addr ~size =
  register_var t ~var ~size:8;
  let s = t.s in
  let v = Imap.find var s.vars in
  if not (List.exists (fun (a, n) -> a = addr && n = size) v.ranges) then begin
    (* Eq. 2: sets associated with distinct commit variables are disjoint.
       The culprit is the lowest clashing byte's owner. *)
    seg_fold_overlaps
      (fun _ _ owner () -> if owner <> var then raise (Overlapping_commit_ranges (owner, var)))
      s.range_bytes addr (addr + size) ();
    t.s <-
      {
        s with
        vars = Imap.add var { v with ranges = (addr, size) :: v.ranges } s.vars;
        range_bytes = seg_set s.range_bytes addr (addr + size) var;
      }
  end

let commit s var ts ev =
  let v = Imap.find var s.vars in
  let v =
    {
      v with
      t_prelast = v.t_last;
      t_last = ts;
      ev_prelast = v.ev_last;
      ev_last = ev;
      commits = v.commits + 1;
    }
  in
  { s with vars = Imap.add var v s.vars }

let on_write t ~defer ~addr ~size ~ts ~ev =
  (* A write spanning several commit variables commits each of them once. *)
  let s = t.s in
  let touched =
    seg_fold_overlaps
      (fun _ _ var touched -> if List.mem var touched then touched else var :: touched)
      s.var_bytes addr (addr + size) []
  in
  if touched <> [] then
    t.s <-
      List.fold_left
        (fun s var ->
          if defer then { s with pending = (var, ts, ev) :: s.pending } else commit s var ts ev)
        s touched

let apply_pending t =
  let s = t.s in
  if s.pending <> [] then
    t.s <-
      List.fold_left
        (fun s (var, ts, ev) -> commit s var ts ev)
        { s with pending = [] } (List.rev s.pending)

let drop_pending t = if t.s.pending <> [] then t.s <- { t.s with pending = [] }

let unregister_var t ~var =
  let s = t.s in
  match Imap.find_opt var s.vars with
  | None -> ()
  | Some v ->
    t.s <-
      {
        vars = Imap.remove var s.vars;
        var_bytes = seg_clear s.var_bytes v.var_addr (v.var_addr + v.var_size);
        range_bytes =
          List.fold_left (fun segs (a, n) -> seg_clear segs a (a + n)) s.range_bytes v.ranges;
        pending = List.filter (fun (w, _, _) -> w <> var) s.pending;
      }

let is_commit_byte t addr = Option.is_some (seg_find t.s.var_bytes addr)

let window_for t addr =
  match seg_find t.s.range_bytes addr with
  | None -> None
  | Some var ->
    let v = Imap.find var t.s.vars in
    if v.commits = 0 then Some None
    else Some (Some ((if v.commits = 1 then -1 else v.t_prelast), v.t_last))

let frame_for t addr =
  match seg_find t.s.range_bytes addr with
  | None -> None
  | Some var ->
    let v = Imap.find var t.s.vars in
    if v.commits = 0 then None else Some (v.ev_prelast, v.ev_last)

let var_count t = Imap.cardinal t.s.vars
