module Addr = Xfd_mem.Addr
module Imap = Map.Make (Int)
module Int_table = Xfd_util.Int_table

(* Immutable: a commit replaces the record, so a version shared between a
   base registry and its forks never changes under either. *)
type var = {
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

(* ---- fork segments ---- *)

(* Disjoint segments [lo.(i), hi.(i)) -> own.(i) in address order, held in
   [head, tail) of arrays with room at both ends.  [Tx.recover] registers
   its flags in descending address order and most other registrations
   ascend, so an insert at either end moves nothing; one in the middle
   moves the shorter side.  [clear] is O(1) and keeps the arrays. *)
module Fsegs = struct
  type t = {
    mutable lo : int array;
    mutable hi : int array;
    mutable own : int array;
    mutable head : int;
    mutable tail : int;
  }

  let create cap =
    let a () = Array.make cap 0 in
    { lo = a (); hi = a (); own = a (); head = cap / 2; tail = cap / 2 }

  let clear t =
    t.head <- Array.length t.lo / 2;
    t.tail <- t.head

  (* Index of the first segment ending after [a] (the one holding [a], if
     any), or [tail]. *)
  let after t a =
    let l = ref t.head and r = ref t.tail in
    while !l < !r do
      let m = (!l + !r) lsr 1 in
      if t.hi.(m) <= a then l := m + 1 else r := m
    done;
    !l

  let holds t i a = i < t.tail && t.lo.(i) <= a

  (* Bounds of the gap before entry [i] (the one [after] found). *)
  let gap_lo t i = if i > t.head then t.hi.(i - 1) else min_int
  let gap_hi t i = if i < t.tail then t.lo.(i) else max_int

  (* Index of the first segment overlapping [lo, hi) whose owner is not
     [var], or [-1]. *)
  let clash t lo hi var =
    let i = ref (after t lo) in
    while !i < t.tail && t.lo.(!i) < hi && t.own.(!i) = var do
      incr i
    done;
    if !i < t.tail && t.lo.(!i) < hi then !i else -1

  (* Move the segments into arrays of [cap] entries (the current ones when
     [cap] is their length), centred; answers how far indices moved. *)
  let recentre t cap =
    let n = t.tail - t.head and head = (cap - (t.tail - t.head)) / 2 in
    let move a = if cap = Array.length a then a else Array.make cap 0 in
    let lo = move t.lo and hi = move t.hi and own = move t.own in
    Array.blit t.lo t.head lo head n;
    Array.blit t.hi t.head hi head n;
    Array.blit t.own t.head own head n;
    let shift = head - t.head in
    t.lo <- lo;
    t.hi <- hi;
    t.own <- own;
    t.head <- head;
    t.tail <- head + n;
    shift

  (* [Array.blit] is a C call even for no entries: an insert at either
     end moves none. *)
  let blit t src dst n =
    if n > 0 then begin
      Array.blit t.lo src t.lo dst n;
      Array.blit t.hi src t.hi dst n;
      Array.blit t.own src t.own dst n
    end

  (* Replace the entries [i, j) by [m] unfilled ones, moving the shorter
     side: answers the index of the first. *)
  let rec splice t i j m =
    let d = m - (j - i) in
    let cap = Array.length t.lo in
    if d = 0 then i
    else if i - t.head <= t.tail - j then
      if t.head >= d then begin
        blit t t.head (t.head - d) (i - t.head);
        t.head <- t.head - d;
        i - d
      end
      else make_room t i j m
    else if t.tail + d <= cap then begin
      blit t j (j + d) (t.tail - j);
      t.tail <- t.tail + d;
      i
    end
    else make_room t i j m

  (* The shorter side's end is full: centre in place while at most half
     full, so each end then has room for a quarter of the arrays;
     otherwise double them. *)
  and make_room t i j m =
    let cap = Array.length t.lo and n = t.tail - t.head + m - (j - i) in
    let shift = recentre t (if 2 * n <= cap then cap else 2 * max cap n) in
    splice t (i + shift) (j + shift) m

  let put t i lo hi own =
    t.lo.(i) <- lo;
    t.hi.(i) <- hi;
    t.own.(i) <- own

  (* Make [t] hold the segments of [map] (an [Imap] of [start -> (stop,
     owner)]). *)
  let load t map =
    clear t;
    Imap.iter (fun lo (hi, own) -> put t (splice t t.tail t.tail 1) lo hi own) map

  (* Bind [lo, hi) (non-empty) to [owner]: segments straddling either edge
     keep their parts outside it.  A span below or above every segment
     needs no search. *)
  let set t lo hi owner =
    if t.head = t.tail || hi <= t.lo.(t.head) then put t (splice t t.head t.head 1) lo hi owner
    else if lo >= t.hi.(t.tail - 1) then put t (splice t t.tail t.tail 1) lo hi owner
    else begin
      let i = after t lo in
      let j = ref i in
      while !j < t.tail && t.lo.(!j) < hi do
        incr j
      done;
      let j = !j in
      let left = i < j && t.lo.(i) < lo and right = i < j && t.hi.(j - 1) > hi in
      let l_lo = if left then t.lo.(i) else 0 and l_own = if left then t.own.(i) else 0 in
      let r_hi = if right then t.hi.(j - 1) else 0 and r_own = if right then t.own.(j - 1) else 0 in
      let k = splice t i j (1 + Bool.to_int left + Bool.to_int right) in
      if left then put t k l_lo lo l_own;
      let k = if left then k + 1 else k in
      put t k lo hi owner;
      if right then put t (k + 1) hi r_hi r_own
    end
end

(* ---- fork scratch ---- *)

(* What a fork adds to the base version it was taken from, owned by the
   base registry and emptied at every fork: the fork's variables (new
   ones, and base ones a fork write touched) as [rows], its byte
   ownership as {!Fsegs}, and its deferred commits.  A lookup reads the
   scratch first, then the base version. *)
type scratch = {
  mutable forks : int; (* forks taken so far *)
  mutable live : int; (* generation of the usable fork; 0 = none *)
  (* Bumped by every scratch update an answer depends on: a fork's memos
     carry the value they were filled at. *)
  mutable ver : int;
  row_of : Int_table.t; (* variable -> row *)
  mutable rows : var array;
  (* Fork writes so far, and per row the one that last touched it, so a
     write commits each variable once. *)
  mutable writes : int;
  mutable stamps : int array;
  mutable n_rows : int;
  mutable fresh : int; (* rows of variables the base version lacks *)
  var_segs : Fsegs.t;
  range_segs : Fsegs.t;
  (* The fork's base version's byte maps, flattened: reloaded at a fork
     only when the base registered something since the map last loaded
     ([*_src]), so fork lookups search arrays and allocate nothing. *)
  base_var_segs : Fsegs.t;
  mutable var_src : segs;
  base_range_segs : Fsegs.t;
  mutable range_src : segs;
  mutable deferred : int array; (* (row, ts, ev) triples *)
  mutable n_deferred : int;
}

(* The answer of one per-byte query, valid for every byte of [lo, hi)
   while the handle is at state [st] and scratch version [ver]: a
   post-failure read's bytes almost always share one segment or one gap,
   so one lookup serves the whole read. *)
type 'a memo = {
  mutable st : state;
  mutable ver : int;
  mutable lo : Addr.t;
  mutable hi : Addr.t;
  mutable v : 'a;
}

(* A base ([gen = 0]) holds its current version; every update builds a
   new one.  A fork holds the version it was taken from (less the
   deferred commits it applied or dropped) plus the scratch, which is
   its own while [gen] is the scratch's live generation. *)
type t = {
  mutable s : state;
  gen : int;
  sc : scratch;
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

(* Bind [lo, hi) to [owner]: the last registration of a byte wins, and
   segments straddling either edge keep their parts outside the span. *)
let seg_set segs lo hi owner =
  if hi <= lo then segs
  else
    let cleared =
      seg_fold_overlaps
        (fun start stop owner acc ->
          let acc = Imap.remove start acc in
          let acc = if start < lo then Imap.add start (lo, owner) acc else acc in
          if stop > hi then Imap.add hi (stop, owner) acc else acc)
        segs lo hi segs
    in
    Imap.add lo (hi, owner) cleared

(* The owner of [a] in [segs], or [-1]; sets [m]'s bounds to the segment
   or gap holding [a]. *)
let seg_span m segs a =
  match Imap.find_last_opt (fun start -> start <= a) segs with
  | Some (start, (stop, owner)) when a < stop ->
    m.lo <- start;
    m.hi <- stop;
    owner
  | prev ->
    m.lo <- (match prev with Some (_, (stop, _)) -> stop | None -> min_int);
    m.hi <-
      (match Imap.find_first_opt (fun start -> start > a) segs with
      | Some (start, _) -> start
      | None -> max_int);
    -1

(* Eq. 2: the lowest byte of [lo, hi) that a variable other than [var]
   governs in [segs], with its owner. *)
let seg_clash segs lo hi var =
  seg_fold_overlaps
    (fun start _ owner acc ->
      match acc with None when owner <> var -> Some (max start lo, owner) | _ -> acc)
    segs lo hi None

(* ---- registry ---- *)

let empty = { vars = Imap.empty; var_bytes = Imap.empty; range_bytes = Imap.empty; pending = [] }
let new_var = { t_prelast = -1; t_last = -1; ev_prelast = -1; ev_last = -1; commits = 0 }

(* [empty] is never a handle's state (each base starts from a copy), so a
   fresh memo never answers. *)
let handle s gen sc =
  {
    s;
    gen;
    sc;
    commit_memo = { st = empty; ver = 0; lo = 0; hi = 0; v = false };
    window_memo = { st = empty; ver = 0; lo = 0; hi = 0; v = None };
  }

let create () =
  handle { empty with pending = [] } 0
    {
      forks = 0;
      live = 0;
      ver = 0;
      row_of = Int_table.create 16;
      rows = Array.make 16 new_var;
      writes = 0;
      stamps = Array.make 16 0;
      n_rows = 0;
      fresh = 0;
      var_segs = Fsegs.create 16;
      range_segs = Fsegs.create 16;
      base_var_segs = Fsegs.create 16;
      var_src = Imap.empty;
      base_range_segs = Fsegs.create 16;
      range_src = Imap.empty;
      deferred = Array.make 48 0;
      n_deferred = 0;
    }

let fork t =
  if t.gen <> 0 then invalid_arg "Commit_registry.fork: a fork cannot be forked";
  let sc = t.sc in
  Int_table.clear sc.row_of;
  sc.n_rows <- 0;
  sc.fresh <- 0;
  Fsegs.clear sc.var_segs;
  Fsegs.clear sc.range_segs;
  sc.n_deferred <- 0;
  if sc.var_src != t.s.var_bytes then begin
    Fsegs.load sc.base_var_segs t.s.var_bytes;
    sc.var_src <- t.s.var_bytes
  end;
  if sc.range_src != t.s.range_bytes then begin
    Fsegs.load sc.base_range_segs t.s.range_bytes;
    sc.range_src <- t.s.range_bytes
  end;
  sc.forks <- sc.forks + 1;
  sc.live <- sc.forks;
  handle t.s sc.forks sc

let rewind t = if t.gen <> 0 && t.sc.live = t.gen then t.sc.live <- 0

(* Is [t] a fork?  Raises on one a newer fork or a rewind retired. *)
let forked t =
  t.gen <> 0
  && (t.sc.live = t.gen
     || invalid_arg "Commit_registry: fork used after a newer fork or its rewind")

(* [a] with room for [need] entries, doubling. *)
let grow a need fill =
  if need <= Array.length a then a
  else begin
    let a' = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* A new row for [var], holding [v]. *)
let add_row sc var v =
  let r = sc.n_rows in
  sc.rows <- grow sc.rows (r + 1) new_var;
  sc.stamps <- grow sc.stamps (r + 1) 0;
  sc.rows.(r) <- v;
  sc.stamps.(r) <- 0;
  Int_table.replace sc.row_of var r;
  sc.n_rows <- r + 1;
  r

(* The fork's row for [var], sharing the base version's record on first
   use. *)
let own_row t var =
  let r = Int_table.find t.sc.row_of var in
  if r >= 0 then r else add_row t.sc var (Imap.find var t.s.vars)

let register_var t ~var ~size =
  if forked t then begin
    let sc = t.sc in
    if Int_table.find sc.row_of var < 0 && not (Imap.mem var t.s.vars) then begin
      ignore (add_row sc var new_var);
      sc.fresh <- sc.fresh + 1;
      if size > 0 then Fsegs.set sc.var_segs var (var + size) var;
      sc.ver <- sc.ver + 1
    end
  end
  else
    let s = t.s in
    if not (Imap.mem var s.vars) then
      t.s <-
        {
          s with
          vars = Imap.add var new_var s.vars;
          var_bytes = seg_set s.var_bytes var (var + size) var;
        }

let register_range t ~var ~addr ~size =
  register_var t ~var ~size:8;
  let s = t.s and stop = addr + size in
  if size > 0 then
    if forked t then begin
      (* Range bytes never change owner (Eq. 2), so the two layers never
         disagree on a byte: the lowest clash is the lower of theirs. *)
      let sc = t.sc in
      let fs = sc.range_segs and bs = sc.base_range_segs in
      let i = Fsegs.clash fs addr stop var and j = Fsegs.clash bs addr stop var in
      if i >= 0 || j >= 0 then begin
        let fork_first = j < 0 || (i >= 0 && fs.lo.(i) <= bs.lo.(j)) in
        raise (Overlapping_commit_ranges ((if fork_first then fs.own.(i) else bs.own.(j)), var))
      end;
      Fsegs.set fs addr stop var;
      sc.ver <- sc.ver + 1
    end
    else
      match Imap.find_opt addr s.range_bytes with
      | Some (hi, owner) when hi = stop && owner = var -> () (* an exact re-registration *)
      | Some _ | None ->
        (* Eq. 2: sets associated with distinct commit variables are
           disjoint.  The culprit is the lowest clashing byte's owner. *)
        Option.iter
          (fun (_, owner) -> raise (Overlapping_commit_ranges (owner, var)))
          (seg_clash s.range_bytes addr stop var);
        t.s <- { s with range_bytes = seg_set s.range_bytes addr stop var }

let committed v ts ev =
  {
    t_prelast = v.t_last;
    t_last = ts;
    ev_prelast = v.ev_last;
    ev_last = ev;
    commits = v.commits + 1;
  }

let commit_var s var ts ev =
  { s with vars = Imap.add var (committed (Imap.find var s.vars) ts ev) s.vars }

let commit_row sc r ts ev =
  sc.rows.(r) <- committed sc.rows.(r) ts ev;
  sc.ver <- sc.ver + 1

(* A fork write touching [var]: commit it (or defer the commit) unless
   this write already did. *)
let touch t ~defer ~ts ~ev var =
  let sc = t.sc in
  let r = own_row t var in
  if sc.stamps.(r) <> sc.writes then begin
    sc.stamps.(r) <- sc.writes;
    if defer then begin
      let k = 3 * sc.n_deferred in
      sc.deferred <- grow sc.deferred (k + 3) 0;
      sc.deferred.(k) <- r;
      sc.deferred.(k + 1) <- ts;
      sc.deferred.(k + 2) <- ev;
      sc.n_deferred <- sc.n_deferred + 1
    end
    else commit_row sc r ts ev
  end

(* Touch every variable owning a byte of [p, stop): the fork's segments,
   and the base's in the gaps between them. *)
let rec touch_span t ~defer ~ts ~ev p stop =
  if p < stop then begin
    let fs = t.sc.var_segs in
    let i = Fsegs.after fs p in
    if Fsegs.holds fs i p then begin
      touch t ~defer ~ts ~ev fs.own.(i);
      touch_span t ~defer ~ts ~ev fs.hi.(i) stop
    end
    else begin
      let gap_end = min stop (Fsegs.gap_hi fs i) in
      let bs = t.sc.base_var_segs in
      let j = ref (Fsegs.after bs p) in
      while !j < bs.tail && bs.lo.(!j) < gap_end do
        touch t ~defer ~ts ~ev bs.own.(!j);
        incr j
      done;
      touch_span t ~defer ~ts ~ev gap_end stop
    end
  end

let on_write t ~defer ~addr ~size ~ts ~ev =
  if forked t then begin
    t.sc.writes <- t.sc.writes + 1;
    touch_span t ~defer ~ts ~ev addr (addr + size)
  end
  else
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
            if defer then { s with pending = (var, ts, ev) :: s.pending }
            else commit_var s var ts ev)
          s touched

(* The base version's deferred commits come before the fork's own. *)
let apply_pending t =
  let s = t.s in
  if forked t then begin
    let sc = t.sc in
    if s.pending <> [] then begin
      List.iter (fun (var, ts, ev) -> commit_row sc (own_row t var) ts ev) (List.rev s.pending);
      t.s <- { s with pending = [] }
    end;
    for k = 0 to sc.n_deferred - 1 do
      commit_row sc sc.deferred.(3 * k) sc.deferred.((3 * k) + 1) sc.deferred.((3 * k) + 2)
    done;
    sc.n_deferred <- 0
  end
  else if s.pending <> [] then
    t.s <-
      List.fold_left
        (fun s (var, ts, ev) -> commit_var s var ts ev)
        { s with pending = [] } (List.rev s.pending)

let drop_pending t =
  if forked t then t.sc.n_deferred <- 0;
  if t.s.pending <> [] then t.s <- { t.s with pending = [] }

(* ---- queries ---- *)

let version t = if forked t then t.sc.ver else 0
let fresh m t addr = m.st == t.s && m.ver = version t && m.lo <= addr && addr < m.hi

(* The owner of [a] in [fs] (or [-1]), and the segment or gap holding
   it into [m]'s bounds, within [m]'s bounds so far. *)
let fsegs_span m fs a =
  let i = Fsegs.after fs a in
  if Fsegs.holds fs i a then begin
    m.lo <- max m.lo fs.lo.(i);
    m.hi <- min m.hi fs.hi.(i);
    fs.own.(i)
  end
  else begin
    m.lo <- max m.lo (Fsegs.gap_lo fs i);
    m.hi <- min m.hi (Fsegs.gap_hi fs i);
    -1
  end

(* The owner of [a] (or [-1]) through [t]'s layers, a fork's own segments
   [fs] before its base's [bs], so a fork's registration wins over the
   base's; sets [m]'s bounds to the span around [a] sharing the answer. *)
let span m t fs bs segs a =
  if not (forked t) then seg_span m segs a
  else begin
    m.lo <- min_int;
    m.hi <- max_int;
    let owner = fsegs_span m fs a in
    if owner >= 0 then owner else fsegs_span m bs a
  end

(* [var]'s record, the fork's row first. *)
let var_of t var =
  let r = if forked t then Int_table.find t.sc.row_of var else -1 in
  if r >= 0 then t.sc.rows.(r) else Imap.find var t.s.vars

let is_commit_byte t addr =
  let m = t.commit_memo in
  if not (fresh m t addr) then begin
    m.v <- span m t t.sc.var_segs t.sc.base_var_segs t.s.var_bytes addr >= 0;
    m.st <- t.s;
    m.ver <- version t
  end;
  m.v

let window_for t addr =
  let m = t.window_memo in
  if not (fresh m t addr) then begin
    let var = span m t t.sc.range_segs t.sc.base_range_segs t.s.range_bytes addr in
    m.v <-
      (if var < 0 then None
       else
         let v = var_of t var in
         if v.commits = 0 then Some None
         else Some (Some ((if v.commits = 1 then -1 else v.t_prelast), v.t_last)));
    m.st <- t.s;
    m.ver <- version t
  end;
  m.v

let frame_for t addr =
  let m = { st = t.s; ver = 0; lo = 0; hi = 0; v = () } in
  match span m t t.sc.range_segs t.sc.base_range_segs t.s.range_bytes addr with
  | -1 -> None
  | var ->
    let v = var_of t var in
    if v.commits = 0 then None else Some (v.ev_prelast, v.ev_last)

let var_count t = Imap.cardinal t.s.vars + if forked t then t.sc.fresh else 0
