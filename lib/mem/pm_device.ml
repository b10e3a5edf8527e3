module Obs = Xfd_obs.Obs

(* Device-level telemetry: every simulated hardware operation counts here,
   whichever layer drives it (frontend, engine snapshots, offline boot). *)
let c_loads = Obs.Counter.make "pm.loads"
let c_load_bytes = Obs.Counter.make "pm.load_bytes"
let c_stores = Obs.Counter.make "pm.stores"
let c_store_bytes = Obs.Counter.make "pm.store_bytes"
let c_nt_stores = Obs.Counter.make "pm.nt_stores"
let c_flushes = Obs.Counter.make "pm.flushes"
let c_fences = Obs.Counter.make "pm.fences"
let c_snapshots = Obs.Counter.make "pm.snapshots"
let c_snapshot_bytes = Obs.Counter.make "pm.snapshot_bytes"
let c_snapshot_shared_bytes = Obs.Counter.make "pm.snapshot_shared_bytes"
let h_snapshot_bytes = Obs.Histogram.make "pm.snapshot_bytes_per_snapshot"
let c_crashes = Obs.Counter.make "pm.crashes"
let c_boots = Obs.Counter.make "pm.boots"

type crash_mode = Full | Strict | Randomized of Xfd_util.Rng.t

type stats = { stores : int; loads : int; flushes : int; fences : int; nt_stores : int }

(* The cache model of a tracking device: the persisted layer and the
   per-byte cache state.  An image-only device ([boot_image_only]) has none
   and does architectural work only. *)
type cache = {
  persisted : Image.t;
  dirty : (Addr.t, unit) Hashtbl.t; (* modified, not captured by a flush *)
  pending : (Addr.t, char) Hashtbl.t; (* captured value awaiting a fence *)
}

type t = { img : Image.t; cache : cache option; mutable st : stats }

let no_stats = { stores = 0; loads = 0; flushes = 0; fences = 0; nt_stores = 0 }
let new_cache persisted =
  { persisted; dirty = Hashtbl.create 256; pending = Hashtbl.create 256 }

let create () =
  { img = Image.create (); cache = Some (new_cache (Image.create ())); st = no_stats }

let image t = t.img
let stats t = t.st

let load t addr size =
  t.st <- { t.st with loads = t.st.loads + 1 };
  Obs.Counter.incr c_loads;
  Obs.Counter.add c_load_bytes size;
  Image.read t.img addr size

let store t addr b =
  t.st <- { t.st with stores = t.st.stores + 1 };
  Obs.Counter.incr c_stores;
  Obs.Counter.add c_store_bytes (Bytes.length b);
  Image.write t.img addr b;
  match t.cache with
  | None -> ()
  | Some c -> Addr.iter_bytes addr (Bytes.length b) (fun a -> Hashtbl.replace c.dirty a ())

let load_i64 t addr = Xfd_util.Bytesx.get_i64 (load t addr 8) 0
let store_i64 t addr v = store t addr (Xfd_util.Bytesx.i64_to_bytes v)

let store_nt t addr b =
  t.st <- { t.st with nt_stores = t.st.nt_stores + 1 };
  Obs.Counter.incr c_nt_stores;
  Obs.Counter.add c_store_bytes (Bytes.length b);
  Image.write t.img addr b;
  match t.cache with
  | None -> ()
  | Some c ->
    Addr.iter_bytes addr (Bytes.length b) (fun a ->
        Hashtbl.remove c.dirty a;
        Hashtbl.replace c.pending a (Image.read_byte t.img a))

let clwb t addr =
  t.st <- { t.st with flushes = t.st.flushes + 1 };
  Obs.Counter.incr c_flushes;
  match t.cache with
  | None -> ()
  | Some c ->
    Addr.iter_bytes (Addr.line_of addr) Addr.line_size (fun a ->
        if Hashtbl.mem c.dirty a then begin
          Hashtbl.remove c.dirty a;
          Hashtbl.replace c.pending a (Image.read_byte t.img a)
        end)

let clflush t addr = clwb t addr

let drain_pending c =
  Hashtbl.iter (fun a v -> Image.write_byte c.persisted a v) c.pending;
  Hashtbl.reset c.pending

let sfence t =
  t.st <- { t.st with fences = t.st.fences + 1 };
  Obs.Counter.incr c_fences;
  Option.iter drain_pending t.cache

let gpf t =
  t.st <- { t.st with fences = t.st.fences + 1 };
  Obs.Counter.incr c_fences;
  (* The global persistent flush: every dirty byte is captured and the
     whole capture set drained to the persisted image in one barrier. *)
  Option.iter
    (fun c ->
      Hashtbl.iter (fun a () -> Image.write_byte c.persisted a (Image.read_byte t.img a)) c.dirty;
      Hashtbl.reset c.dirty;
      drain_pending c)
    t.cache

let dirty_bytes t = match t.cache with None -> 0 | Some c -> Hashtbl.length c.dirty
let pending_bytes t = match t.cache with None -> 0 | Some c -> Hashtbl.length c.pending

let tracking t fn =
  match t.cache with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Pm_device.%s: the device is image-only" fn)

let is_persisted_range t addr size =
  let c = tracking t "is_persisted_range" in
  let ok = ref true in
  Addr.iter_bytes addr size (fun a ->
      if Hashtbl.mem c.dirty a || Hashtbl.mem c.pending a then ok := false
      else if not (Char.equal (Image.read_byte c.persisted a) (Image.read_byte t.img a))
      then ok := false);
  !ok

let crash t mode =
  Obs.Counter.incr c_crashes;
  match mode with
  | Full -> Image.snapshot t.img
  | Strict -> Image.snapshot (tracking t "crash Strict").persisted
  | Randomized rng ->
    let c = tracking t "crash Randomized" in
    (* Start from the guaranteed bytes, then let chance evict or order any
       in-flight line.  Decisions are per cache line, matching hardware:
       eviction writes back whole lines. *)
    let out = Image.snapshot c.persisted in
    let lines = Hashtbl.create 16 in
    Hashtbl.iter (fun a () -> Hashtbl.replace lines (Addr.line_of a) ()) c.dirty;
    Hashtbl.iter (fun a _ -> Hashtbl.replace lines (Addr.line_of a) ()) c.pending;
    Hashtbl.iter
      (fun line () ->
        if Xfd_util.Rng.bool rng then
          Addr.iter_bytes line Addr.line_size (fun a ->
              match Hashtbl.find_opt c.pending a with
              | Some v -> Image.write_byte out a v
              | None ->
                if Hashtbl.mem c.dirty a then
                  Image.write_byte out a (Image.read_byte t.img a)))
      lines;
    out

(* A failure-point capture is the crash image itself: one CoW chunk-table
   copy and no eager byte copy, so [pm.snapshot_bytes] grows by 0 and
   [pm.snapshot_shared_bytes] by the captured image's footprint. *)
let capture t mode =
  Obs.Counter.incr c_snapshots;
  Obs.Histogram.observe h_snapshot_bytes 0;
  let img = crash t mode in
  Obs.Counter.add c_snapshot_shared_bytes (Image.footprint img);
  img

(* Both layers start as CoW views of the crash image: the booted device's
   architectural content counts as persisted, and the first write to any
   chunk of either layer takes its private copy. *)
let boot img =
  Obs.Counter.incr c_boots;
  { img = Image.snapshot img; cache = Some (new_cache (Image.snapshot img)); st = no_stats }

let boot_image_only img =
  Obs.Counter.incr c_boots;
  { img = Image.snapshot img; cache = None; st = no_stats }

let copy_cache copy_image c =
  {
    persisted = copy_image c.persisted;
    dirty = Hashtbl.copy c.dirty;
    pending = Hashtbl.copy c.pending;
  }

let cache_entries t =
  match t.cache with None -> 0 | Some c -> Hashtbl.length c.dirty + Hashtbl.length c.pending

let footprints t =
  Image.footprint t.img
  + match t.cache with None -> 0 | Some c -> Image.footprint c.persisted

(* [pm.snapshot_bytes] counts the bytes a snapshot copies *eagerly*: for the
   CoW [snapshot] that is only the cache-state delta (dirty + pending byte
   entries) — the images are shared structurally, recorded under
   [pm.snapshot_shared_bytes] — while [deep_snapshot] still pays for both
   full images.  The CI smoke test budgets the per-snapshot eager bytes of
   a detect run, whose snapshots are [capture]s. *)
let snapshot t =
  let eager = cache_entries t in
  Obs.Counter.incr c_snapshots;
  Obs.Counter.add c_snapshot_bytes eager;
  Obs.Histogram.observe h_snapshot_bytes eager;
  Obs.Counter.add c_snapshot_shared_bytes (footprints t);
  {
    img = Image.snapshot t.img;
    cache = Option.map (copy_cache Image.snapshot) t.cache;
    st = t.st;
  }

let deep_snapshot t =
  let copied = footprints t in
  Obs.Counter.incr c_snapshots;
  Obs.Counter.add c_snapshot_bytes copied;
  Obs.Histogram.observe h_snapshot_bytes copied;
  {
    img = Image.deep_copy t.img;
    cache = Option.map (copy_cache Image.deep_copy) t.cache;
    st = t.st;
  }

let release t =
  Image.release t.img;
  Option.iter
    (fun c ->
      Image.release c.persisted;
      Hashtbl.reset c.dirty;
      Hashtbl.reset c.pending)
    t.cache
