module Addr = Xfd_mem.Addr
module Pages = Xfd_mem.Shadow_pages
module Loc = Xfd_util.Loc

type t = {
  pages : Pages.t;
  domain : Xfd_trace.Domain_model.t;
  words : int;  (* cold words per PM byte *)
  (* The packed bytes a store and a non-temporal store leave, and the
     codes a flushed modified byte, a fenced pending byte and a byte
     drained by the GPF barrier take; whether fences and the barrier
     persist at all. *)
  write_packed : int;
  nt_write_packed : int;
  flush_code : int;
  fence_code : int;
  gpf_code : int;
  fence_persists : bool;
  gpf_persists : bool;
  (* The location table: id [0] is [Loc.unknown]; a location is appended
     unless it is physically the one interned last ([last_loc], whose id
     is [last_id]).  Each store has its own: two detects may run at once
     on two threads. *)
  mutable locs : Loc.t array;
  mutable n_locs : int;
  mutable last_loc : Loc.t;
  mutable last_id : int;
}

let c_modified = Pstate.code Pstate.Modified
let c_pending = Pstate.code Pstate.Writeback_pending
let c_persisted = Pstate.code Pstate.Persisted

let state packed = Pstate.of_code (Pages.state_of packed)
let pending_bit code = if code = c_pending then Pages.bit_pending else 0

let pack s =
  let code = Pstate.code s in
  code lor Pages.bit_tracked lor pending_bit code

let all_states = Pstate.[ Unmodified; Modified; Writeback_pending; Persisted ]

let create ~domain ~words =
  let constant f = List.for_all (fun s -> Pstate.equal (f s) (f Pstate.Unmodified)) all_states in
  (* The write kernels store one target per event, whatever each byte
     held before: that holds in every model. *)
  assert (constant (Pstate.on_write_in domain) && constant (Pstate.on_nt_write_in domain));
  let drain = Pstate.on_gpf_in domain in
  assert (
    Pstate.equal (drain Pstate.Modified) (drain Pstate.Writeback_pending)
    || not (Pstate.persists_at_gpf domain));
  {
    pages = Pages.create ();
    domain;
    words;
    write_packed = pack (Pstate.on_write_in domain Pstate.Unmodified);
    nt_write_packed = pack (Pstate.on_nt_write_in domain Pstate.Unmodified);
    flush_code = Pstate.code (Pstate.on_flush_in domain Pstate.Modified);
    fence_code = Pstate.code (Pstate.on_fence_in domain Pstate.Writeback_pending);
    gpf_code = Pstate.code (drain Pstate.Modified);
    fence_persists = Pstate.persists_at_fence domain;
    gpf_persists = Pstate.persists_at_gpf domain;
    locs = Array.make 64 Loc.unknown;
    n_locs = 1;
    last_loc = Loc.unknown;
    last_id = 0;
  }

let domain t = t.domain
let pages t = t.pages

let truncate_locs t n =
  t.n_locs <- n;
  t.last_loc <- Loc.unknown;
  t.last_id <- 0

let release t =
  Pages.release t.pages;
  t.locs <- [| Loc.unknown |];
  truncate_locs t 1

let meta t addr = Pages.column t.pages addr
let own_meta t addr = Pages.own_column t.pages addr (8 * t.words * Pages.page_size)

(* Field [word] of the byte at [off] in its page is word
   [word * page_size + off] of the column. *)
let slot ~word addr = (word * Pages.page_size) + Pages.offset addr

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let get col i = if col == Bytes.empty then 0 else Int64.to_int (get64 col (8 * i))

let fill col i n w =
  let w = Int64.of_int w in
  for k = i to i + n - 1 do
    set64 col (8 * k) w
  done

let blit src i dst j n = Bytes.blit src (8 * i) dst (8 * j) (8 * n)

let save_words t addr n dst at =
  let col = meta t addr in
  if col == Bytes.empty then fill dst at n 0 else blit col (Pages.offset addr) dst at n

let restore_words t src at addr n =
  let col = meta t addr in
  if col != Bytes.empty then blit src at col (Pages.offset addr) n

let word_at t ~word addr = get (meta t addr) (slot ~word addr)
let fill_at t ~word addr n w = fill (own_meta t addr) (slot ~word addr) n w

let set_logged t ~word k w =
  let addrs = Pages.change_addrs t.pages in
  for i = 0 to k - 1 do
    let a = addrs.(i) in
    set64 (own_meta t a) (8 * slot ~word a) (Int64.of_int w)
  done

(* The id of [loc] in the location table. *)
let intern t loc =
  if loc == t.last_loc then t.last_id
  else begin
    let id = t.n_locs in
    if id = Array.length t.locs then begin
      let locs = Array.make (2 * id) Loc.unknown in
      Array.blit t.locs 0 locs 0 id;
      t.locs <- locs
    end;
    t.locs.(id) <- loc;
    t.n_locs <- id + 1;
    t.last_loc <- loc;
    t.last_id <- id;
    id
  end

let word t ~stamp loc =
  if stamp < 0 || stamp > 0xffff_fffe then invalid_arg "Pstore.word: stamp out of range";
  (stamp + 1) lor (intern t loc lsl 32)

let stamp w = (w land 0xffff_ffff) - 1
let loc t w = t.locs.(w lsr 32)
let locs t = t.n_locs

(* ------------------------------------------------------------------ *)
(* Transfers *)

let write_target t ~nt = if nt then t.nt_write_packed else t.write_packed
let flush_pends t = t.flush_code = c_pending
let restate_bits code set = code lor pending_bit code lor set
let only code = 1 lsl code

(* One pass restates the modified bytes and classifies the line: when
   it held none, nothing was stored. *)
let flush_line t line ~set =
  let states =
    Pages.scan_restate t.pages line Addr.line_size ~states:(only c_modified)
      ~bits:(restate_bits t.flush_code set)
  in
  if states land only c_modified <> 0 then `Had_modified
  else if states land only c_pending <> 0 then `Waste Pstate.Double_flush
  else if states land only c_persisted <> 0 then `Waste Pstate.Unnecessary_flush
  else `Clean

(* Restate the selected bytes of each of the [n] segments; answers how
   many were stored. *)
let restate_segments t addrs lens n ~states ~having ~bits =
  let k = ref 0 in
  for i = 0 to n - 1 do
    k := !k + Pages.restate t.pages addrs.(i) lens.(i) ~states ~having ~bits
  done;
  !k

let fence t ~set ~log =
  if not t.fence_persists then 0
  else
    Pages.restate_all t.pages ~pending:true ~states:(only c_pending)
      ~bits:(restate_bits t.fence_code set) ~log

let fence_segments t addrs lens n ~having ~set =
  if not t.fence_persists then 0
  else
    restate_segments t addrs lens n ~states:(only c_pending) ~having
      ~bits:(restate_bits t.fence_code set)

let outstanding_states = only c_modified lor only c_pending

let gpf t ~set ~log =
  if not t.gpf_persists then 0
  else
    Pages.restate_all t.pages ~pending:false ~states:outstanding_states
      ~bits:(restate_bits t.gpf_code set) ~log

let gpf_segments t addrs lens n ~having ~set =
  if not t.gpf_persists then 0
  else
    restate_segments t addrs lens n ~states:outstanding_states ~having
      ~bits:(restate_bits t.gpf_code set)

let iter_outstanding t f =
  Pages.iter_tracked t.pages (fun a packed ->
      if outstanding_states land only (Pages.state_of packed) <> 0 then f a packed)
