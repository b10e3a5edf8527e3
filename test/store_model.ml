(* Reference model of [Xfd.Shadow_pm]: the straightforward per-byte store,
   one hash-table cell per tracked byte, stepped through the [Xfd.Pstate]
   transfers one byte at a time.  A divergence is the base store seeded
   with the prefix's cells: every copied cell is marked [seeded], and a
   seeded byte stays outside the divergence's fences and GPFs until the
   divergence stores to it (which clears the mark).  That is the whole
   fork rule, shared with no journal or pending-list code; a rewind drops
   the copy.  It is slow where the production store is fast (an
   overlay copies every cell, a fence visits every byte), and that is the
   point: every answer follows from the per-byte rules with no segment,
   bitmap or journal arithmetic to get wrong.  The core.store property runs
   random operation sequences against both and compares them. *)

module Pstate = Xfd.Pstate
module Pages = Xfd_mem.Shadow_pages
module Loc = Xfd_util.Loc

type cell = {
  st : Pstate.t;
  uninit : bool;
  post : bool;
  tlast : int;
  writer : Loc.t;
  seeded : bool;
}

type store = {
  domain : Xfd_trace.Domain_model.t;
  base : (int, cell) Hashtbl.t;
  mutable div : (int, cell) Hashtbl.t option;
  mutable gens : int;
  mutable live : int;
}

type t = { store : store; gen : int }

(* FSM transition tallies, in the order of [Shadow_pm]'s counters:
   to_modified, to_writeback_pending, to_persisted, to_unmodified. *)
let counts = Array.make 4 0

let fsm_counts () = Array.to_list counts

let tally st =
  let i =
    match st with
    | Pstate.Modified -> 0
    | Pstate.Writeback_pending -> 1
    | Pstate.Persisted -> 2
    | Pstate.Unmodified -> 3
  in
  counts.(i) <- counts.(i) + 1

let create ?forensics:_ ?(domain = Xfd_trace.Domain_model.Adr) () =
  { store = { domain; base = Hashtbl.create 64; div = None; gens = 0; live = 0 }; gen = 0 }

let overlay t =
  let s = t.store in
  s.gens <- s.gens + 1;
  s.live <- s.gens;
  let cells = Hashtbl.create (Hashtbl.length s.base) in
  Hashtbl.iter (fun a c -> Hashtbl.replace cells a { c with seeded = true }) s.base;
  s.div <- Some cells;
  { store = s; gen = s.gens }

let rewind t =
  if t.gen <> 0 && t.store.live = t.gen then begin
    t.store.div <- None;
    t.store.live <- 0
  end

let stale () = invalid_arg "Store_model: overlay used after its divergence was rewound"

(* The cells a mutation through [t] acts on.  A base mutation drops the
   live divergence first. *)
let target t =
  let s = t.store in
  if t.gen = 0 then begin
    s.div <- None;
    s.live <- 0;
    s.base
  end
  else if s.live = t.gen then match s.div with Some d -> d | None -> assert false
  else stale ()

(* The cells a read through [t] sees. *)
let view t =
  let s = t.store in
  if t.gen = 0 then s.base
  else if s.live = t.gen then match s.div with Some d -> d | None -> assert false
  else stale ()

(* Every store leaves its byte unseeded. *)
let put cells a c =
  Hashtbl.replace cells a { c with seeded = false };
  tally c.st

let write t addr size ~ts ~ev:_ ~loc ~nt ~post =
  let cells = target t in
  let next =
    if nt then Pstate.on_nt_write_in t.store.domain else Pstate.on_write_in t.store.domain
  in
  for a = addr to addr + size - 1 do
    let old = Hashtbl.find_opt cells a in
    let st = next (match old with Some c -> c.st | None -> Pstate.Unmodified) in
    let post = post || match old with Some c -> c.post | None -> false in
    put cells a { st; uninit = false; post; tlast = ts; writer = loc; seeded = false }
  done

let flush_line t line ~ev:_ =
  let cells = target t in
  let states =
    List.filter_map (fun i -> Hashtbl.find_opt cells (line + i)) (List.init Xfd_mem.Addr.line_size Fun.id)
  in
  let some st = List.exists (fun c -> Pstate.equal c.st st) states in
  if some Pstate.Modified then begin
    for a = line to line + Xfd_mem.Addr.line_size - 1 do
      match Hashtbl.find_opt cells a with
      | Some c when Pstate.equal c.st Pstate.Modified ->
        put cells a { c with st = Pstate.on_flush_in t.store.domain c.st }
      | Some _ | None -> ()
    done;
    `Had_modified
  end
  else if some Pstate.Writeback_pending then `Waste Pstate.Double_flush
  else if some Pstate.Persisted then `Waste Pstate.Unnecessary_flush
  else `Clean

(* Restate every unseeded cell that [pick] selects to its [step] image,
   in address order. *)
let promote cells pick step =
  Hashtbl.fold (fun a c acc -> if (not c.seeded) && pick c then a :: acc else acc) cells []
  |> List.sort Int.compare
  |> List.iter (fun a ->
         let c = Hashtbl.find cells a in
         put cells a { c with st = step c.st })

let fence t ~ev:_ =
  let cells = target t in
  let domain = t.store.domain in
  if Pstate.persists_at_fence domain then
    promote cells (fun c -> Pstate.equal c.st Pstate.Writeback_pending) (Pstate.on_fence_in domain)

let outstanding c = Pstate.equal c.st Pstate.Modified || Pstate.equal c.st Pstate.Writeback_pending

(* A divergence's GPF drains only the bytes it post-wrote itself. *)
let gpf t ~ev:_ =
  let cells = target t in
  let domain = t.store.domain in
  let own c = t.gen = 0 || c.post in
  if Pstate.persists_at_gpf domain then
    promote cells (fun c -> own c && outstanding c) (Pstate.on_gpf_in domain)

let mark_alloc_raw t addr size ~ev:_ =
  let cells = target t in
  for a = addr to addr + size - 1 do
    let tlast, writer =
      match Hashtbl.find_opt cells a with Some c -> (c.tlast, c.writer) | None -> (-1, Loc.unknown)
    in
    put cells a
      { st = Pstate.Unmodified; uninit = true; post = false; tlast; writer; seeded = false }
  done

(* The packed byte in [Shadow_pm]'s layout: the state code, the tracked
   and pending bits, and the uninit, post-written and journaled flags. *)
let packed t a =
  match Hashtbl.find_opt (view t) a with
  | None -> 0
  | Some c ->
    let journaled = t.gen <> 0 && not c.seeded in
    let bit b flag = if b then flag else 0 in
    Pstate.code c.st lor Pages.bit_tracked
    lor bit (Pstate.equal c.st Pstate.Writeback_pending) Pages.bit_pending
    lor bit c.uninit Pages.bit_flag_a lor bit c.post Pages.bit_flag_b
    lor bit journaled Pages.bit_flag_c

let tlast t a = match Hashtbl.find_opt (view t) a with Some c -> c.tlast | None -> -1
let writer t a = match Hashtbl.find_opt (view t) a with Some c -> c.writer | None -> Loc.unknown

(* The cells of the store as it stands: the live divergence's, else the
   base's. *)
let current s = match s.div with Some d -> d | None -> s.base

let tracked_bytes t =
  let s = t.store in
  if t.gen = 0 then Hashtbl.length (current s)
  else if s.live = t.gen then
    Hashtbl.fold (fun _ c n -> if c.seeded then n else n + 1) (current s) 0
  else 0

let pending_bytes t =
  let s = t.store in
  if t.gen <> 0 && s.live <> t.gen then 0
  else
    Hashtbl.fold
      (fun _ c n -> if Pstate.equal c.st Pstate.Writeback_pending then n + 1 else n)
      (current s) 0
