(** The table B-tree (paper §5.1, §5.3, Figure 3).

    One tree per relation, keyed by the internally assigned, monotonically
    increasing [row_id]; tuples live in PAX-format leaf pages managed by
    the swizzling buffer pool. Because row ids only grow, inserts always
    append to the rightmost leaf and interior splits happen only on the
    right edge — precisely the design the paper adopts to avoid B-tree
    node-splitting overhead.

    The tree unifies all three temperature tiers: rows with
    [row_id <= max_frozen_row_id] live in compressed frozen blocks (Data
    Block File); hotter rows live in buffer-managed PAX leaves that are
    resident (hot) or spilled to the Data Page File (cold). *)

type t

type location =
  | In_page of Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame * int
      (** resident/cold leaf frame and slot *)
  | In_frozen of Phoebe_storage.Frozen.t
      (** row is inside a frozen block *)
  | Absent  (** out of range, or the slot was never allocated *)

type manifest = {
  leaves : (int * int) list;  (** (page id, min row id) of every leaf, in row-id order *)
  block_ids : int list;  (** Data Block File ids of the frozen blocks, in row-id order *)
  next_rid : int;
  max_frozen : int;
}
(** What a checkpoint records of a tree: enough to rebuild it over the
    existing Data Page / Data Block files. *)

val create :
  name:string ->
  schema:Phoebe_storage.Value.Schema.t ->
  buf:Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.t ->
  block_store:Phoebe_io.Pagestore.t ->
  ?block_id_alloc:(unit -> int) ->
  ?leaf_capacity:int ->
  ?manifest:manifest ->
  unit ->
  t
(** [block_id_alloc] hands out ids in the (shared) Data Block File; the
    default private counter is only safe when a single tree uses the
    store. Without [manifest] the tree starts with one empty leaf. With
    it the tree is rebuilt from a checkpoint: leaves come back cold
    (faulted on demand) and frozen blocks are decoded from the block
    store. The next row id is past both the manifest's [next_rid] and
    the rightmost leaf's stored rows, so a replayed insert whose row an
    image already holds overwrites it in place. *)

val name : t -> string
val schema : t -> Phoebe_storage.Value.Schema.t

val append :
  ?on_page:(Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame -> int -> unit) ->
  t ->
  Phoebe_storage.Value.t array ->
  int
(** Insert a tuple, assigning and returning the next row id. [on_page]
    runs inside the append critical section with the leaf frame and the
    new row id — the MVCC/WAL hooks use it so that per-table WAL (GSN)
    order matches row-id order, which recovery replay relies on. *)

val locate : ?touch:bool -> t -> row_id:int -> location
(** Find where a row id lives. The caller checks delete marks /
    visibility. A miss is the constant [Absent], not an option, so a
    point lookup allocates no [Some] per probe.

    Every tree keeps a swizzled-leaf fence cache: the last leaf a
    descent reached, with its row-id fences. A lookup inside the fences
    whose leaf is still buffer-resident skips the descent and the
    resolve for a single probe charge, refreshing the frame's recency
    and access count exactly as the resolve would. *)

val read : ?touch:bool -> t -> row_id:int -> Phoebe_storage.Value.t array option
(** Raw current version (ignores MVCC, skips delete-marked rows). *)

val holds_live :
  t -> Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame -> slot:int -> row_id:int -> bool
(** Whether a frame from an earlier {!locate} still holds [row_id] live
    at [slot]: the frame is still resident (a page faulted back in gets a
    fresh frame, so a resident frame is its page's only one), the slot
    still carries [row_id], and it is not delete-marked. It charges
    nothing; a hit refreshes the frame's eviction recency, as a fence
    hit does. A writer re-checks the frame it holds this way after a
    tuple-lock wait instead of locating the row again. *)

val mark_deleted : t -> row_id:int -> bool
(** Returns false if the row does not exist or was already deleted. *)

val mark_deleted_at : t -> Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame -> slot:int -> bool
(** {!mark_deleted} of a slot already located in a resident frame: no
    second locate. *)

val undelete : t -> row_id:int -> bool
(** Clear a delete mark (rollback of an aborted delete). *)

val undelete_at : t -> Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame -> slot:int -> bool
(** {!undelete} of a slot already located in a resident frame. *)

val append_exact : t -> row_id:int -> Phoebe_storage.Value.t array -> unit
(** Recovery-only: append preserving the original row id (row ids of
    rolled-back transactions leave gaps in the WAL). [row_id] must be
    at least [next_row_id]. *)

val scan : ?touch:bool -> t -> ?from_rid:int -> ?to_rid:int ->
  (int -> Phoebe_storage.Value.t array -> unit) -> unit
(** Iterate the live (not delete-marked) tuples with row ids in
    [from_rid, to_rid] (default: every row appended when the scan
    starts), in row-id order across frozen and page tiers; the page tier
    is {!iter_leaf_pages}'s pinned leaf walk. [touch] defaults to
    [false]: scans must not warm data (§5.2). MVCC scans, which must see
    delete-marked tuples too, use {!iter_slots}. *)

val iter_slots :
  t ->
  to_rid:int ->
  (Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame -> slot:int -> rid:int -> unit) ->
  unit
(** The page tier's slots with row ids up to [to_rid], delete-marked
    ones included, in row-id order: [f frame ~slot ~rid] on
    {!iter_leaf_pages}'s pinned leaf walk, without warming. The frame
    stays pinned while [f] runs, so [f] may read the slot in place after
    a suspension. *)

val next_row_id : t -> int
val max_frozen_row_id : t -> int
val tuple_count_estimate : t -> int

(** {1 Temperature management (§5.2)} *)

val freeze_prefix : t -> up_to_rid:int -> int
(** Freeze all leaves entirely below [up_to_rid] into compressed blocks,
    appending them to the Data Block File and advancing
    [max_frozen_row_id]. Returns the number of tuples frozen. Leaves
    with delete-marked rows are compacted in the process. *)

val freeze_cold_prefix : t -> max_access:int -> int
(** Policy entry point: freeze the maximal prefix of consecutive leaves
    whose OLTP access count is [<= max_access] (paper: consecutive pages
    below an access threshold are grouped into frozen blocks). *)

val decay_access_counts : t -> unit
(** Halve every resident leaf's OLTP access counter — the "access
    frequency over time" decay the freeze policy reads. Run
    periodically by housekeeping. *)

val frozen_block_count : t -> int
val leaf_count : t -> int

val iter_blocks : t -> (Phoebe_storage.Frozen.t -> unit) -> unit
(** Frozen blocks in row-id order (analytical scans). *)

val iter_leaf_pages : t -> (Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.frame -> unit) -> unit
(** Resolve and visit every leaf page in row-id order without warming
    (scans must not heat data, §5.2). Each leaf stays pinned while the
    callback runs, so the callback may fault other pages. *)

val compression_ratio : t -> float
(** uncompressed/compressed bytes across frozen blocks; 1.0 if none. *)

(** {1 Checkpoint support} *)

val manifest : t -> manifest
(** The tree's checkpoint manifest. Dirty resident leaves are written
    back first, so every page the manifest names is durable. *)
