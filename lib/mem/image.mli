(** A sparse byte image of persistent memory.

    The image is the value store; it knows nothing about caching or
    persistence (that is {!Pm_device}'s job).  Storage is chunked so that a
    pool mapped at [Addr.pool_base] costs memory proportional to the bytes
    actually touched.  Unwritten bytes read as zero, like a fresh DAX file.

    Chunks are structurally shared: {!snapshot}, the image's only copy
    operation, copies the chunk table and bumps per-chunk refcounts, so it
    is O(chunks touched), not O(bytes).  A chunk referenced by more than
    one image is immutable; the first write through any of its owners
    takes a private copy (copy-on-write), so mutations of either side stay
    invisible to the other, exactly as with a deep copy.  Every crash
    image, failure-point capture and booted device is such a snapshot.
    Refcounts are atomic: images whose tables are private to one
    domain may share chunks across domains (the engine's post-failure
    worker pool relies on this). *)

type t

(** Chunk granularity of the store (4 KiB).  [snapshot] cost and
    copy-on-write cost are multiples of this. *)
val chunk_size : int

val create : unit -> t

val read_byte : t -> Addr.t -> char
val write_byte : t -> Addr.t -> char -> unit

(** [read t addr size] copies [size] bytes out of the image. *)
val read : t -> Addr.t -> int -> bytes

(** [write t addr b] stores all of [b] at [addr]. *)
val write : t -> Addr.t -> bytes -> unit

(** [read_into t addr dst off size] copies [size] bytes at [addr] into
    [dst] from [off]; it allocates nothing. *)
val read_into : t -> Addr.t -> bytes -> int -> int -> unit

(** [write_from t addr src off size] stores [size] bytes of [src] from
    [off] at [addr]; on chunks the image already owns it allocates
    nothing. *)
val write_from : t -> Addr.t -> bytes -> int -> int -> unit

val read_i64 : t -> Addr.t -> int64
val write_i64 : t -> Addr.t -> int64 -> unit

(** O(chunk-table) copy-on-write snapshot; mutations of either side are
    invisible to the other.  Byte copies are deferred to the first write of
    each shared chunk. *)
val snapshot : t -> t

(** Drop this image's references to its chunks (the image then reads as all
    zeroes).  Releasing is optional — the GC reclaims unreachable images —
    but it keeps the process-wide {!live_bytes} accounting exact and frees
    shared chunks eagerly; the engine releases snapshots as soon as their
    failure point has been processed. *)
val release : t -> unit

(** Bytes of this image's chunks currently shared with at least one other
    image (i.e. not yet privately copied). *)
val shared_bytes : t -> int

(** Number of bytes ever written (an upper bound on live data; used by the
    engine to size shadow structures and report image footprint).  Shared
    chunks count fully — this is the per-image logical footprint, not the
    process-wide physical one (see {!live_bytes}). *)
val footprint : t -> int

(** [equal_range a b addr size] compares a byte range across two images. *)
val equal_range : t -> t -> Addr.t -> int -> bool

(** {1 Process-wide chunk accounting}

    Unique chunk payload bytes across every image in the process: a chunk
    shared by ten snapshots counts once.  Mirrored in the
    [pm.chunk_bytes_live] / [pm.chunk_bytes_peak] gauges. *)

val live_bytes : unit -> int

(** High-water mark of {!live_bytes} since the last {!reset_peak}. *)
val peak_bytes : unit -> int

val reset_peak : unit -> unit

(** {1 Chunk recycling}

    A chunk whose last reference goes (by {!release}, or by the
    copy-on-write fault that replaced it) joins a process-wide free list,
    and the next chunk any image needs is taken from it.  Pooled chunks
    count as freed in {!live_bytes}.  The list holds at most
    {!free_bound} chunks; it is domain-safe. *)

(** Chunks on the free list now. *)
val free_chunks : unit -> int

(** Most chunks the free list keeps (256, 1 MiB of payload). *)
val free_bound : int
