(** MVCC-aware relational tables: the public data-access surface.

    A table combines its table B-tree (hot/cold PAX pages plus frozen
    blocks), its secondary indexes, the twin tables holding version
    chains, and the WAL. All mutating operations follow the paper's
    protocols: the §6.2 pre-write check (wait on the writer's
    transaction-ID lock, retry under read committed, first-committer-wins
    abort under repeatable read), a slot-held tuple lock for the
    in-place modification, a before-image UNDO log, and a redo WAL record
    with RFA dependency tracking. Reads never lock: they run Algorithm 1
    against the version chain.

    Updates and deletes of frozen rows are out-of-place (§5.2): the
    frozen copy is delete-marked (with MVCC versioning through a
    synthetic page entry) and the new version re-inserted into hot
    storage under a fresh row id. *)

type t

type txn = Phoebe_txn.Txnmgr.txn

val id : t -> int
val name : t -> string
val schema : t -> Phoebe_storage.Value.Schema.t
val tree : t -> Phoebe_btree.Table_tree.t

(** {1 DDL} *)

val create :
  ?manifest:Phoebe_btree.Table_tree.manifest ->
  id:int ->
  name:string ->
  schema:Phoebe_storage.Value.Schema.t ->
  buf:Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.t ->
  block_store:Phoebe_io.Pagestore.t ->
  block_id_alloc:(unit -> int) ->
  txnmgr:Phoebe_txn.Txnmgr.t ->
  wal:Phoebe_wal.Wal.t ->
  leaf_capacity:int ->
  unit ->
  t
(** A new, empty table; with [manifest] (see {!Checkpoint}), the table
    is rebuilt over the existing Data Page / Data Block files instead. *)

val add_index : t -> name:string -> cols:string list -> unique:bool -> unit
(** Create a secondary index over the named columns and backfill it from
    the existing (committed) rows.
    @raise Invalid_argument on duplicate index name or unknown column. *)

val index_names : t -> string list

val index_cols : t -> string -> string list
(** Key columns of the named index, in key order.
    @raise Invalid_argument for an unknown index. *)

val index_is_unique : t -> string -> bool

val lock_exclusive : t -> txn -> unit
(** Take this table's lock exclusively (blocks out all DML until the
    transaction ends) — what a DDL statement would do. DML operations
    implicitly take the lock in shared mode (§7.2). *)

(** {1 DML (transactional)} *)

val insert : t -> txn -> Phoebe_storage.Value.t array -> int
(** Returns the new row id. @raise Txnmgr.Abort on a unique-key conflict. *)

val col : t -> string -> int
(** The index of the named column: resolve names once, then write by
    index through {!update}.
    @raise Invalid_argument for an unknown column. *)

val update :
  ?reads:int array ->
  t -> txn -> rid:int ->
  (Phoebe_storage.Value.t array -> (int * Phoebe_storage.Value.t) array) ->
  bool
(** In-place read-modify-write of row [rid]: the closure receives the
    current row *after* the tuple lock is granted and the pre-write
    check passed, and returns the [(column index, value)] pairs to
    write, so [SET x = x + 1]-style updates never lose increments — the
    semantics a SQL UPDATE has under read committed. False if the row is
    not visible / does not exist. May block on a concurrent writer;
    raises {!Phoebe_txn.Txnmgr.Abort} on serialization failure
    (repeatable read) or deadlock.

    [reads] projects the row the closure sees (DESIGN.md §4h): only the
    listed columns are decoded and every other cell is
    [Value.Null]; without it the whole row is decoded. The row is
    scratch, valid for the duration of the closure. The returned array
    becomes the WAL record's column list; the closure must not keep or
    reuse it. *)

val delete : t -> txn -> rid:int -> bool

val get : t -> txn -> rid:int -> Phoebe_storage.Value.t array option
(** The version visible to the transaction's snapshot (Algorithm 1).

    Ownership (DESIGN.md §4h): the row is decoded into a per-slot
    scratch ring and stays valid only until this transaction reads a
    few ([Tupbuf.ring]) more rows of this table; copy to retain. *)

(** {1 Index access (visibility-filtered)} *)

val index_lookup_first :
  ?cols:int array ->
  t -> txn -> index:string -> key:Phoebe_storage.Value.t list ->
  (int * Phoebe_storage.Value.t array) option
(** The first visible row, in rid order, whose indexed columns still
    equal [key] (stale entries from in-flight key updates are filtered by
    re-checking the key). The row lives in the slot's dedicated result
    buffer: it survives subsequent reads and updates, and is only
    overwritten by this transaction's next [index_lookup_first] on the
    same table; copy to retain beyond that.

    [cols] projects the read (DESIGN.md §4h): only the index key columns
    and the listed column indexes are decoded, and every other cell of
    the row is [Value.Null]. Apart from the returned pair, the lookup
    allocates nothing per candidate row. *)

val index_prefix :
  ?cols:int array ->
  t -> txn -> index:string -> prefix:Phoebe_storage.Value.t list ->
  (int -> Phoebe_storage.Value.t array -> bool) -> unit
(** Visit visible rows with the given key prefix in key order; callback
    returns false to stop; with the full key it visits every visible
    match. The row argument is scratch, valid only for
    the duration of the callback; copy to retain. [cols] projects each
    row as in {!index_lookup_first}. *)

val scan : t -> txn -> (int -> Phoebe_storage.Value.t array -> unit) -> unit
(** Full-table scan of visible rows (does not warm pages, §5.2). The
    row argument is scratch, valid only for the duration of the
    callback; copy to retain. *)

(** {1 Engine hooks (used by Db, not applications)} *)

val rollback_undo : t -> Phoebe_txn.Undo.t -> unit
val gc_reclaim_undo : t -> Phoebe_txn.Undo.t -> unit
(** Physical cleanup when an UNDO log is reclaimed: strip index entries
    of deleted tuples and stale entries of key updates (§7.3). An update
    that wrote no index key column left no stale entry: reclaiming it
    reads no tuple and charges nothing. *)

val raw_insert : t -> rid:int -> Phoebe_storage.Value.t array -> unit
(** Recovery replay: non-transactional insert preserving [rid]. *)

val raw_exists : t -> rid:int -> bool
(** Quorum replica apply: does [rid] currently locate to a stored tuple?
    [raw_update] silently no-ops on an absent rid, so appliers that must
    fail loudly on a missing base row check first. *)

val raw_update : t -> rid:int -> (int * Phoebe_storage.Value.t) array -> unit
val raw_delete : t -> rid:int -> unit

val maybe_freeze : t -> max_access:int -> int
(** Housekeeping: decay access counters and freeze the cold prefix. *)

val frozen_chain_key : t -> rid:int -> int
(** The synthetic twin-table page key of a frozen row (analytics checks
    it to route versioned frozen tuples through the slow path). *)

val frozen_reads : t -> int
(** OLTP point reads served from the frozen tier since the last warm
    pass (drives the §5.2 warming policy). *)

val warm_hot_frozen : t -> txn -> read_threshold:int -> int
(** §5.2 case 3: frozen blocks whose OLTP read count exceeded
    [read_threshold] have their live rows marked deleted and re-inserted
    into hot storage (fresh row ids, indexes updated) under the given
    transaction. Returns rows warmed. Nothing in the kernel calls it yet:
    no housekeeping pass warms frozen rows. *)
