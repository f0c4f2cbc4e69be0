(** The pointer-swizzling buffer manager (paper §5.3).

    Leaf data pages are managed in buffer frames referenced through
    swizzled pointers ([swip]s): a hot swip points directly at the frame
    (no global hash table), a cold swip carries the on-disk page id.
    Pages pass through the Hot → Cooling → Cold state machine: cooling
    pages stay resident with the cooling bit set (second chance — an
    access swizzles them straight back to hot); cold pages have been
    written out and unswizzled.

    The pool is partitioned per worker thread (paper §7.1: each worker
    manages its own buffer partition and swaps pages locally), removing
    cross-worker contention on replacement state.

    Inner B-tree nodes are deliberately not buffer-managed: they are a
    fraction of a percent of the data and pinning them in memory is what
    production systems do in practice; only leaves participate in
    eviction, which keeps the parent pointers needed for unswizzling
    trivially stable. *)

type 'p t

type 'p frame

type 'p ref_state = private Swizzled of 'p frame | Unswizzled of int

type 'p swip = private { mutable ptr : 'p ref_state }
(** A swip is read-only outside this module: matching [ptr] reaches a
    hot frame without the [Some] that {!resident_frame_of_swip} builds
    (the table tree's fence cache does this on every point lookup). *)

(** {1 Construction} *)

type 'p codec = {
  encode : 'p -> Bytes.t;
  decode : Bytes.t -> 'p;
  size : 'p -> int;  (** in-memory footprint estimate *)
}

val create :
  ?obs:Phoebe_obs.Obs.t ->
  Phoebe_sim.Engine.t ->
  store:Phoebe_io.Pagestore.t ->
  partitions:int ->
  budget_bytes:int ->
  codec:'p codec ->
  'p t
(** [budget_bytes] is the total pool budget, split evenly across
    partitions. Page ids are allocated past the largest id [store]
    already holds, so a pool over a surviving store never reuses one.
    With [obs], cleaner accounting registers under
    [buf.cleaner.*] and residency under [buf.resident_{bytes,pages}]
    (pull metrics). *)

val set_budget : 'p t -> budget_bytes:int -> unit

(** {1 Page lifecycle} *)

val alloc : 'p t -> partition:int -> 'p -> 'p frame
(** New hot, dirty page in [partition]'s pool. *)

val swip_of : 'p frame -> 'p swip
(** A (swizzled) swip for a freshly allocated frame. *)

val vacant : unit -> 'p frame
(** A frame of no pool that is never resident: the initial value of a
    mutable frame field that is always written before it is read. *)

val resolve : ?touch:bool -> 'p t -> 'p swip -> 'p frame
(** Follow a swip. Hot hit: direct dereference. Cooling: swizzle back to
    hot. Cold: fault the page in from the store (the calling fiber
    suspends for the read) and swizzle. [touch] (default true) counts an
    OLTP access for temperature tracking; pass [false] for scans so they
    do not warm data (§5.2). *)

val touch_frame : 'p t -> 'p frame -> touch:bool -> unit
(** The bookkeeping half of a hot {!resolve}, without its charge: refresh
    the frame's eviction recency, swizzle a Cooling frame back to Hot,
    and with [touch] count an OLTP access. For callers that already hold
    a resident frame (the table tree's leaf fence cache). *)

val payload : 'p frame -> 'p
(** @raise Invalid_argument if the frame is not resident. *)

val latch : 'p frame -> Latch.t
val page_id : 'p frame -> int
val mark_dirty : 'p frame -> unit
val is_dirty : 'p frame -> bool
val update_size : 'p t -> 'p frame -> unit

val pin : 'p frame -> unit
(** Prevent eviction while the holder is suspended on I/O. *)

val unpin : 'p frame -> unit

val set_parent : 'p frame -> 'p swip -> unit
(** Register the inner-node swip pointing at this frame so eviction can
    unswizzle it. *)

val drop : 'p t -> 'p frame -> unit
(** Remove a page entirely (freeze path); the swip holder must forget it. *)

(** {1 The steal guard}

    Pages are updated in place and the WAL is redo-only, so a stolen
    page (dirty, flushed mid-transaction) would put uncommitted data on
    durable media that recovery can never roll back. The guard is asked
    before every image leaves for the store (single write-back, cleaner
    batches, eviction fallback and flush-all alike). It has two parts:

    - [unsafe] is the test: does the page hold an entry that is not yet
      durably committed? It copies nothing, so a page the cleaner or
      eviction declines to write costs no image.
    - [strip] rebuilds the durably-committed image of an unsafe page on
      a fresh copy, leaving the live page untouched; on a safe page it
      returns the page itself (physically [==]).

    The pool strips only when [unsafe] holds, so a safe page is encoded
    copy-free. A stripped write-back leaves the frame dirty, so the
    full image is flushed again later rather than silently lost to a
    clean-frame eviction. *)

type 'p steal_guard = { unsafe : page_id:int -> 'p -> bool; strip : page_id:int -> 'p -> 'p }

val set_steal_guard : 'p t -> 'p steal_guard -> unit
(** Install the guard. A pool starts with one that finds every page
    safe. *)

val steal_guard : 'p t -> 'p steal_guard
(** The installed guard. *)

(** {1 Temperature metadata (read by the freeze engine)} *)

val access_count : 'p frame -> int
val last_access : 'p frame -> int

val halve_access_count : 'p frame -> unit
(** Exponential decay step for "access frequency over time" (§5.2). *)

val resident_frame_of_swip : 'p swip -> 'p frame option
(** The frame a swip points at, without faulting: [None] when cold. *)

val page_id_of_swip : 'p swip -> int
(** The page id behind a swip, resident or not. *)

val cold_swip : int -> 'p swip
(** An unswizzled swip for a page known to be in the store (restore
    path); resolving it faults the page in. *)

(** {1 Background page cleaner}

    With the cleaner attached, dirty cooling frames are tracked on a
    per-partition dirty queue and written back by a demand-kicked
    scheduler fiber in batches of up to [cl_batch_pages] pages through
    one vectored device submission ({!Phoebe_io.Pagestore.write_batch}).
    Eviction then finds clean frames and reduces to a pointer unswizzle;
    a page re-dirtied while its batch is in flight is re-queued, never
    lost (write coalescing). *)

type cleaner_config = {
  cl_enabled : bool;
  cl_batch_pages : int;  (** max pages per vectored device submission (K) *)
}

val default_cleaner : cleaner_config
(** Enabled, K = 16. The cleaner drains a partition once its used bytes
    pass 0.7 of its budget. Pools start with the cleaner disabled until
    {!attach_cleaner} is called. *)

type cleaner_stats = {
  batches_submitted : int;
  pages_cleaned : int;
  pages_requeued : int;  (** re-dirtied while their batch was in flight *)
  clean_evicts : int;  (** evictions that were a pure pointer unswizzle *)
  dirty_evict_fallbacks : int;  (** evictions that had to write inline *)
}

val attach_cleaner : 'p t -> scheduler:Phoebe_runtime.Scheduler.t -> cleaner_config -> unit
(** Enable (or reconfigure) the background cleaner. Cleaner fibers run
    on [scheduler] with the partition index as affinity. *)

val cleaner_config : 'p t -> cleaner_config
val cleaner_stats : 'p t -> cleaner_stats

val write_back_batch : 'p t -> 'p frame list -> unit
(** Persist the dirty resident frames among [frames] through the
    vectored batch path, chunked at [cl_batch_pages]; the calling fiber
    suspends until every chunk completes. Clean or non-resident frames
    are skipped. Must run inside a scheduler fiber. *)

(** {1 Replacement} *)

val maintain : 'p t -> partition:int -> unit
(** Run the cooling/eviction pass for one partition until it is within
    budget: demote hot pages to cooling in clock order and unswizzle
    clean cooling pages. With the cleaner attached, dirty cooling pages
    are handed to the batch write-back path instead of being written
    inline, and the pass yields early when everything evictable is
    waiting on an in-flight batch. Runs in the calling fiber (page
    provider task slot). *)

val needs_maintenance : 'p t -> partition:int -> bool

(** {1 Introspection} *)

val resident_bytes : 'p t -> int
val resident_pages : 'p t -> int

val is_resident : 'p frame -> bool
(** The one residency test: a frame is resident iff it holds its
    payload. A page id outlives its frames (an evicted page faults back
    in as a new frame), so a holder of a frame asks this of the frame,
    never whether some frame holds the page id. *)

val store : 'p t -> Phoebe_io.Pagestore.t
val n_partitions : 'p t -> int
