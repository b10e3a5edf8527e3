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

(* The answer of one per-byte query, valid for every byte of [lo, hi)
   while the registry is at state [st]: a post-failure read's bytes
   almost always share one segment or one gap, so one map lookup serves
   the whole read. *)
type 'a memo = { mutable st : state; mutable lo : Addr.t; mutable hi : Addr.t; mutable v : 'a }

(* Every update builds a new [state], so a clone is a copy of this pointer
   (and a stale memo is one whose [st] is not the current state). *)
type t = {
  mutable s : state;
  commit_memo : bool memo;
  window_memo : (int * int) option option memo;
}

exception Overlapping_commit_ranges of Addr.t * Addr.t

(* ---- segment maps ---- *)

(* Fold [f start stop owner] over the segments overlapping [lo, hi), in
   address order.  Segments are disjoint, so when the last one starting
   below [hi] ends by [lo], none overlaps: one lookup settles the common
   case of a span no segment touches. *)
let seg_fold_overlaps f segs lo hi acc =
  match Imap.find_last_opt (fun start -> start < hi) segs with
  | Some (_, (stop, _)) when stop > lo && hi > lo ->
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
  | Some _ | None -> acc

(* Unbind [lo, hi), whoever owns it; overlapping segments keep the parts
   outside the span.  With no overlap the map comes back unchanged. *)
let seg_clear segs lo hi =
  seg_fold_overlaps
    (fun start stop owner acc ->
      let acc = Imap.remove start acc in
      let acc = if start < lo then Imap.add start (lo, owner) acc else acc in
      if stop > hi then Imap.add hi (stop, owner) acc else acc)
    segs lo hi segs

(* The segment or gap holding [a], as [(lo, hi, owner)]; [owner] is [-1]
   for a gap. *)
let seg_span segs a =
  match Imap.find_last_opt (fun start -> start <= a) segs with
  | Some (start, (stop, owner)) when a < stop -> (start, stop, owner)
  | prev ->
    let lo = match prev with Some (_, (stop, _)) -> stop | None -> min_int in
    let hi =
      match Imap.find_first_opt (fun start -> start > a) segs with
      | Some (start, _) -> start
      | None -> max_int
    in
    (lo, hi, -1)

(* Bind [lo, hi) to [owner]: the last registration of a byte wins. *)
let seg_set segs lo hi owner =
  if hi <= lo then segs else Imap.add lo (hi, owner) (seg_clear segs lo hi)

(* ---- registry ---- *)

let empty = { vars = Imap.empty; var_bytes = Imap.empty; range_bytes = Imap.empty; pending = [] }

(* [empty] is never a handle's state (each handle starts from a copy), so
   a fresh memo never answers. *)
let of_state s =
  {
    s;
    commit_memo = { st = empty; lo = 0; hi = 0; v = false };
    window_memo = { st = empty; lo = 0; hi = 0; v = None };
  }

let create () = of_state { empty with pending = [] }
let clone t = of_state t.s

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

let fresh m t addr = m.st == t.s && m.lo <= addr && addr < m.hi

let is_commit_byte t addr =
  let m = t.commit_memo in
  if not (fresh m t addr) then begin
    let lo, hi, owner = seg_span t.s.var_bytes addr in
    m.st <- t.s;
    m.lo <- lo;
    m.hi <- hi;
    m.v <- owner >= 0
  end;
  m.v

let window_for t addr =
  let m = t.window_memo in
  if not (fresh m t addr) then begin
    let lo, hi, var = seg_span t.s.range_bytes addr in
    m.st <- t.s;
    m.lo <- lo;
    m.hi <- hi;
    m.v <-
      (if var < 0 then None
       else
         let v = Imap.find var t.s.vars in
         if v.commits = 0 then Some None
         else Some (Some ((if v.commits = 1 then -1 else v.t_prelast), v.t_last)))
  end;
  m.v

let frame_for t addr =
  match seg_span t.s.range_bytes addr with
  | _, _, -1 -> None
  | _, _, var ->
    let v = Imap.find var t.s.vars in
    if v.commits = 0 then None else Some (v.ev_prelast, v.ev_last)

let var_count t = Imap.cardinal t.s.vars
