(** Simulated persistent-memory device with a volatile cache model.

    This is the substitute for Intel Optane DCPMM plus the x86 cache
    hierarchy.  The device tracks three layers per byte:

    - the {e architectural} value (what loads return),
    - bytes {e captured} by a flush (CLWB/CLFLUSH/CLFLUSHOPT or an NT store)
      but not yet ordered by a fence ("writeback-pending"),
    - the {e persisted} value, guaranteed to survive a failure.

    A store dirties its bytes; a flush captures the current value of every
    dirty byte in the 64-byte line; an SFENCE promotes all captured bytes to
    persisted.  This mirrors the persistence-state machine of the paper's
    Figure 9.  Because real caches may also evict dirty lines at any time, a
    modified-but-unflushed byte {e may or may not} survive a failure — which
    is exactly why a post-failure read of it is a race.  [crash] exposes the
    three useful crash images: full (the paper's footnote-3 copy), strict
    (only guaranteed bytes), and randomized (one possible interleaving).

    The cache state lives in two bitmaps per 4 KiB page, one bit per byte
    each: dirty and pending.  A line holding pending bytes owns a 64-byte
    buffer of the values they were captured with.  A store sets one bitmap
    range per page it touches; a flush moves its line's dirty bits to
    pending and copies the line out of the image once; a fence writes the
    pending lines' captured bytes to the persisted image and forgets them
    (O(pending lines)); a GPF walks the dirty bitmaps a line at a time.
    The dirty and pending byte counts are kept as the bits change, so
    {!dirty_bytes} and {!pending_bytes} are O(1).  On pages it has
    touched before, a store, flush, fence or GPF allocates nothing.

    A device made by {!boot_image_only} has no cache model: no persisted
    layer and no dirty or pending sets.  Its stores, flushes and fences do
    only architectural work, which is all a post-failure run needs (the
    detector's shadow FSM, not the device, decides what was persisted).

    A device is never copied whole.  What outlives a failure point is its
    crash image: {!capture} takes it as the point fires (an
    O(chunk-table) copy-on-write view, see {!Image.snapshot}), and
    {!boot_image_only} or {!boot} starts a device from it, so a recovery
    writes to chunks the live device still shares only after a private
    copy. *)

type t

type crash_mode =
  | Full  (** copy every architectural byte, as XFDetector's frontend does *)
  | Strict  (** keep only bytes guaranteed persistent *)
  | Randomized of Xfd_util.Rng.t
      (** persisted bytes plus a random subset of in-flight cache lines;
          enumerates one legal eviction interleaving.  The in-flight lines
          (those holding a dirty or pending byte) draw one [Rng.bool] each,
          in ascending address order, so the image is a function of the
          device state and the generator's seed.  An evicted line writes
          each pending byte's captured value, else each dirty byte's
          current value. *)

val create : unit -> t

(** Architectural loads and stores. *)

val load : t -> Addr.t -> int -> bytes
val store : t -> Addr.t -> bytes -> unit
val load_i64 : t -> Addr.t -> int64
val store_i64 : t -> Addr.t -> int64 -> unit

(** Non-temporal store: bypasses the cache; becomes persistent at the next
    fence without any flush. *)
val store_nt : t -> Addr.t -> bytes -> unit

(** [clwb t addr] captures the dirty bytes of the line containing [addr]. *)
val clwb : t -> Addr.t -> unit

(** CLFLUSH/CLFLUSHOPT have identical persistence effects in this model. *)
val clflush : t -> Addr.t -> unit

(** Order all captured bytes: they become persisted. *)
val sfence : t -> unit

(** Global persistent flush barrier (CXL): capture every dirty byte and
    drain the whole capture set to the persisted image in one step.  A
    byte stored again after its flush persists its latest value, not the
    one the flush captured.  Counted as a fence in the device stats. *)
val gpf : t -> unit

(** Number of bytes currently modified but not captured by any flush
    (always 0 on an image-only device). *)
val dirty_bytes : t -> int

(** Number of bytes captured but not yet fenced (always 0 on an image-only
    device). *)
val pending_bytes : t -> int

(** [is_persisted_range t addr size] is true when every byte of the range is
    guaranteed durable (persisted value equals architectural value and the
    byte is neither dirty nor pending).  Raises [Invalid_argument] on an
    image-only device. *)
val is_persisted_range : t -> Addr.t -> int -> bool

(** Build the PM image that a failure at this instant would leave behind.
    The image shares chunks with the device copy-on-write, so this is
    O(chunk-table + in-flight lines); actual byte copies are deferred to
    whoever writes first.  An image-only device accepts only [Full] and
    raises [Invalid_argument] on [Strict] and [Randomized]. *)
val crash : t -> crash_mode -> Image.t

(** [crash], counted as a failure-point snapshot: the engine captures each
    failure point's crash image as soon as the point fires.  It copies no
    byte eagerly ([pm.snapshot_bytes] grows by 0) and records the image's
    footprint under [pm.snapshot_shared_bytes]. *)
val capture : t -> crash_mode -> Image.t

(** A fresh device booted from a crash image: empty caches, image and
    persisted layers both equal to [img] (shared copy-on-write, so booting
    is O(chunk-table)).  The booted device tracks persistence, so it can
    be crashed again in any mode. *)
val boot : Image.t -> t

(** An image-only device booted from a crash image: its architectural image
    is a copy-on-write view of [img] (O(chunk-table)), and it has no cache
    model.  Loads, stores, NT stores, flushes, fences and GPF leave the
    same architectural bytes as on a {!boot}ed device; {!dirty_bytes} and
    {!pending_bytes} stay 0; {!crash} accepts only [Full].  The engine, the
    baselines and the trace tool run every post-failure stage on one. *)
val boot_image_only : Image.t -> t

(** Drop the device's chunk references and cache state (see
    {!Image.release}).  Optional — GC-safe without it — but keeps the
    process-wide chunk accounting exact; the engine releases each
    post-failure device as soon as its run is over. *)
val release : t -> unit

(** Direct access to the architectural image (read-only uses only). *)
val image : t -> Image.t

type stats = { stores : int; loads : int; flushes : int; fences : int; nt_stores : int }

val stats : t -> stats
