module Varint = Phoebe_util.Varint
module Value = Phoebe_storage.Value
module Table_tree = Phoebe_btree.Table_tree
module Txnmgr = Phoebe_txn.Txnmgr
module Clock = Phoebe_txn.Clock
module Wal = Phoebe_wal.Wal
module Recovery = Phoebe_wal.Recovery

let take db =
  if Txnmgr.active_count (Db.txnmgr db) > 0 then
    invalid_arg "Checkpoint.take: transactions still active";
  (* make every log record and every dirty page durable first *)
  Db.checkpoint db;
  let buf = Buffer.create 4096 in
  Varint.write_uint buf (Clock.current (Txnmgr.clock (Db.txnmgr db)));
  let cfg = Db.config db in
  let n_slots = cfg.Config.n_workers * cfg.Config.slots_per_worker in
  Varint.write_uint buf n_slots;
  for slot = 0 to n_slots - 1 do
    Varint.write_int buf (Wal.flushed_lsn (Db.wal db) ~slot)
  done;
  let tables = Db.tables db in
  Varint.write_uint buf (List.length tables);
  List.iter
    (fun table ->
      Varint.write_string buf (Table.name table);
      Value.Schema.write buf (Table.schema table);
      let { Table_tree.leaves; block_ids; next_rid; max_frozen } =
        Table_tree.manifest (Table.tree table)
      in
      Varint.write_uint buf next_rid;
      Varint.write_uint buf max_frozen;
      Varint.write_uint buf (List.length leaves);
      List.iter
        (fun (pid, min_rid) ->
          Varint.write_uint buf pid;
          Varint.write_uint buf min_rid)
        leaves;
      Varint.write_uint buf (List.length block_ids);
      List.iter (fun bid -> Varint.write_uint buf bid) block_ids;
      let indexes = Table.index_names table in
      Varint.write_uint buf (List.length indexes);
      List.iter
        (fun ix ->
          Varint.write_string buf ix;
          Buffer.add_char buf (if Table.index_is_unique table ix then 'u' else 'n');
          let cols = Table.index_cols table ix in
          Varint.write_uint buf (List.length cols);
          List.iter (Varint.write_string buf) cols)
        indexes)
    tables;
  (* The manifest walk queued leaf write-backs; until they (and any
     earlier cleaner/freeze writes) are confirmed on media the snapshot
     references volatile pages and must not be published. This is the
     checkpointer's fsync-and-verify barrier — it also re-issues writes
     that fault injection tore. *)
  Db.sync_stores db;
  Buffer.to_bytes buf

let restore ~from ~snapshot cfg =
  let db = Db.create_attached from cfg in
  let b = snapshot in
  let clock_ts, off = Varint.read_uint b 0 in
  Clock.advance_to (Txnmgr.clock (Db.txnmgr db)) clock_ts;
  let n_slots, off = Varint.read_uint b off in
  let off = ref off in
  let frontier = Array.make (max 1 n_slots) (-1) in
  for slot = 0 to n_slots - 1 do
    let lsn, o = Varint.read_int b !off in
    frontier.(slot) <- lsn;
    off := o
  done;
  let n_tables, o = Varint.read_uint b !off in
  off := o;
  let deferred_indexes = ref [] in
  for _ = 1 to n_tables do
    let name, o = Varint.read_string b !off in
    let schema, o = Value.Schema.read b o in
    let next_rid, o = Varint.read_uint b o in
    let max_frozen, o = Varint.read_uint b o in
    let n_leaves, o = Varint.read_uint b o in
    off := o;
    let leaves =
      List.init n_leaves (fun _ ->
          let pid, o = Varint.read_uint b !off in
          let min_rid, o = Varint.read_uint b o in
          off := o;
          (pid, min_rid))
    in
    let n_blocks, o = Varint.read_uint b !off in
    off := o;
    let block_ids =
      List.init n_blocks (fun _ ->
          let bid, o = Varint.read_uint b !off in
          off := o;
          bid)
    in
    let schema =
      Array.to_list (Value.Schema.columns schema)
      |> List.map (fun (c : Value.Schema.column) -> (c.name, c.ctype))
    in
    let manifest = { Table_tree.leaves; block_ids; next_rid; max_frozen } in
    let table = Db.create_table db ~name ~schema ~manifest in
    let n_ix, o = Varint.read_uint b !off in
    off := o;
    for _ = 1 to n_ix do
      let ix_name, o = Varint.read_string b !off in
      let unique = Bytes.get b o = 'u' in
      let n_cols, o = Varint.read_uint b (o + 1) in
      off := o;
      let cols =
        List.init n_cols (fun _ ->
            let c, o = Varint.read_string b !off in
            off := o;
            c)
      in
      deferred_indexes := (table, ix_name, cols, unique) :: !deferred_indexes
    done
  done;
  (* replay the WAL suffix first, then rebuild indexes over the final
     row set (index backfill is a scan, so order matters for cost only —
     but replaying first avoids maintaining half-built indexes) *)
  let report =
    Db.replay_wal db
      ~after:(fun slot -> if slot < Array.length frontier then frontier.(slot) else -1)
      ~from:(Wal.store (Db.wal from))
  in
  List.iter
    (fun (table, ix_name, cols, unique) -> Table.add_index table ~name:ix_name ~cols ~unique)
    (List.rev !deferred_indexes);
  (db, report)
