module Value = Phoebe_storage.Value
module Pax = Phoebe_storage.Pax
module Frozen = Phoebe_storage.Frozen
module Tupbuf = Phoebe_storage.Tupbuf
module Bufmgr = Phoebe_storage.Bufmgr
module Table_tree = Phoebe_btree.Table_tree
module Index_tree = Phoebe_btree.Index_tree
module Txnmgr = Phoebe_txn.Txnmgr
module Undo = Phoebe_txn.Undo
module Twin = Phoebe_txn.Twin
module Mvcc = Phoebe_txn.Mvcc
module Clock = Phoebe_txn.Clock
module Tablelock = Phoebe_txn.Tablelock
module Wal = Phoebe_wal.Wal
module Record = Phoebe_wal.Record
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost

type txn = Txnmgr.txn

type index = { ix_name : string; ix : Index_tree.t; key_cols : int array; ix_unique : bool }

type t = {
  tid : int;
  tbl_name : string;
  tschema : Value.Schema.t;
  ttree : Table_tree.t;
  txnmgr : Txnmgr.t;
  wal : Wal.t;
  mutable indexes : index list;
  (* the relation's lock block, conceptually hanging off the B-tree root *)
  tlock : Tablelock.t;
  (* per-frozen-block OLTP read counters, keyed by first_row_id (§5.2) *)
  frozen_read_counts : (int, int ref) Hashtbl.t;
  mutable frozen_reads_total : int;
  (* reusable per-slot row buffers for the execute path (DESIGN.md §4h) *)
  scratch : Tupbuf.t;
  (* reusable key-encode buffer; each use is confined to one
     charge-free stretch, so fibers can never interleave inside it *)
  key_scratch : Buffer.t;
}

let id t = t.tid
let name t = t.tbl_name
let schema t = t.tschema
let tree t = t.ttree

let create ?manifest ~id ~name ~schema ~buf ~block_store ~block_id_alloc ~txnmgr ~wal ~leaf_capacity
    () =
  {
    tid = id;
    tbl_name = name;
    tschema = schema;
    ttree =
      Table_tree.create ~name ~schema ~buf ~block_store ~block_id_alloc ~leaf_capacity ?manifest ();
    txnmgr;
    wal;
    indexes = [];
    tlock = Tablelock.create ();
    frozen_read_counts = Hashtbl.create 16;
    frozen_reads_total = 0;
    scratch = Tupbuf.create ~arity:(Value.Schema.arity schema);
    key_scratch = Buffer.create 64;
  }

let rec encode_row_key buf (cols : int array) (row : Value.t array) i =
  if i < Array.length cols then begin
    Value.encode_key buf row.(cols.(i));
    encode_row_key buf cols row (i + 1)
  end

(* Shared empty arrays: an empty column list and a row not taken. *)
let no_cols : int array = [||]
let no_row : Value.t array = [||]

(* [index]'s key of [row], encoded through the table's key scratch: one
   string per key and no [Buffer.create]. *)
let key_of_row t index (row : Value.t array) =
  let buf = t.key_scratch in
  Buffer.clear buf;
  encode_row_key buf index.key_cols row 0;
  (* lint: allow hot-path-alloc — the key string, one per index entry touched *)
  Buffer.contents buf

(* All keys of a row: add or drop [row]'s entry in each index of the
   list. A module-level loop rather than a closure, as [key_delta]. *)
let rec row_keys t ~add ~rid row = function
  | [] -> ()
  | ix :: rest ->
    let key = key_of_row t ix row in
    if add then Index_tree.insert ix.ix ~key ~rid else ignore (Index_tree.delete ix.ix ~key ~rid);
    row_keys t ~add ~rid row rest

(* Whether writing the columns of [cols] (an update's column list or an
   undo before-image) can change [ix]'s key. An update, its rollback and
   its GC touch index entries only for such indexes; most OLTP updates
   write no key column and skip index maintenance entirely. *)
let rec col_written (cols : (int * Value.t) array) kc i =
  i < Array.length cols && (Int.equal (fst cols.(i)) kc || col_written cols kc (i + 1))

let rec key_col_written key_cols cols j =
  j < Array.length key_cols
  && (col_written cols key_cols.(j) 0 || key_col_written key_cols cols (j + 1))

let writes_key ix cols = key_col_written ix.key_cols cols 0

let rec writes_any_key cols = function
  | [] -> false
  | ix :: rest -> writes_key ix cols || writes_any_key cols rest

(* The key delta between two versions of a row: over the indexes whose
   key columns [cols] wrote, where the key of [from_row] differs from
   that of [to_row], drop the [from_row] entry ([drop]) and add the
   [to_row] entry ([add]). *)
let rec key_delta t ~drop ~add ~rid cols from_row to_row = function
  | [] -> ()
  | ix :: rest ->
    if writes_key ix cols then begin
      let from_key = key_of_row t ix from_row and to_key = key_of_row t ix to_row in
      if not (String.equal from_key to_key) then begin
        if drop then ignore (Index_tree.delete ix.ix ~key:from_key ~rid);
        if add then Index_tree.insert ix.ix ~key:to_key ~rid
      end
    end;
    key_delta t ~drop ~add ~rid cols from_row to_row rest

let add_index t ~name ~cols ~unique =
  if List.exists (fun ix -> ix.ix_name = name) t.indexes then
    invalid_arg ("Table.add_index: duplicate index " ^ name);
  let key_cols = Array.of_list (List.map (Value.Schema.column_index t.tschema) cols) in
  (* Index trees are internally non-unique: with MVCC, two entries for
     one key legitimately coexist while an old version is still visible
     (e.g. a frozen row superseded by its hot re-insert). Uniqueness is
     enforced at this layer against the *live* row set. *)
  let index = { ix_name = name; ix = Index_tree.create ~name ~unique:false (); key_cols; ix_unique = unique } in
  let only = [ index ] in
  Table_tree.scan ~touch:false t.ttree (fun rid row -> row_keys t ~add:true ~rid row only);
  t.indexes <- index :: t.indexes

let index_names t = List.map (fun ix -> ix.ix_name) t.indexes

let index_is_unique t name =
  match List.find_opt (fun ix -> ix.ix_name = name) t.indexes with
  | Some ix -> ix.ix_unique
  | None -> invalid_arg ("Table.index_is_unique: no such index " ^ name)

let index_cols t name =
  match List.find_opt (fun ix -> ix.ix_name = name) t.indexes with
  | Some ix ->
    let cols = Value.Schema.columns t.tschema in
    Array.to_list (Array.map (fun c -> cols.(c).Value.Schema.name) ix.key_cols)
  | None -> invalid_arg ("Table.index_cols: no such index " ^ name)

let rec find_in name = function
  | [] -> invalid_arg ("Table: no such index " ^ name) (* lint: allow hot-path-alloc — error path *)
  | ix :: rest -> if String.equal ix.ix_name name then ix else find_in name rest

(* a module-level search rather than [List.find_opt] and a closure: it
   runs once per index statement *)
let find_index t name = find_in name t.indexes

(* ------------------------------------------------------------------ *)
(* WAL + RFA bookkeeping *)

(* Synthetic twin-table key for frozen rows (block tuples have no buffer
   frame): negative so it never collides with buffer page ids, and
   table-qualified so tables sharing a row-id range never share chains. *)
let frozen_twin_key t rid = -((t.tid lsl 40) lor rid)

(* Tuple-level RFA (§8): the commit dependency is decided by the GSN of
   the *tuple's* last writer (from the twin entry), not the page's — a
   page holds hundreds of tuples and page-level tracking manufactures
   false cross-slot dependencies. The page GSN is still advanced and
   stamped into the page (it makes WAL replay order consistent with
   same-page write order, surviving twin-table GC, eviction and a
   restart). *)
let log_page_write t (txn : txn) (e : Twin.entry) frame op =
  let page = Bufmgr.payload frame in
  if Wal.observe_page t.wal ~slot:txn.Txnmgr.slot ~page_gsn:e.Twin.wgsn ~writer_slot:e.Twin.wslot
  then begin
    txn.Txnmgr.needs_remote <- true;
    txn.Txnmgr.remote_gsn <- max txn.Txnmgr.remote_gsn e.Twin.wgsn
  end;
  let gsn = Wal.next_gsn t.wal ~slot:txn.Txnmgr.slot ~page_gsn:(Pax.gsn page) in
  ignore (Wal.append t.wal ~slot:txn.Txnmgr.slot op ~gsn);
  Pax.set_gsn page gsn;
  e.Twin.wgsn <- gsn;
  e.Twin.wslot <- txn.Txnmgr.slot;
  txn.Txnmgr.wrote <- true

let log_frozen_write t (txn : txn) op =
  let gsn = Wal.next_gsn t.wal ~slot:txn.Txnmgr.slot ~page_gsn:0 in
  ignore (Wal.append t.wal ~slot:txn.Txnmgr.slot op ~gsn);
  txn.Txnmgr.wrote <- true

(* ------------------------------------------------------------------ *)
(* Reads *)

(* Statement boundary: take the table lock in shared (DML) mode, refresh
   the snapshot under read committed, and pay the per-statement
   procedure-logic cost (SQL executor dispatch in the baselines, UDF
   logic in PhoebeDB). *)
let statement_begin t txn =
  Txnmgr.lock_table t.txnmgr txn t.tlock ~mode:Tablelock.Shared;
  Txnmgr.refresh_snapshot t.txnmgr txn;
  Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.app_logic_per_stmt

let lock_exclusive t txn = Txnmgr.lock_table t.txnmgr txn t.tlock ~mode:Tablelock.Exclusive

let chain_head_for t ~page_key ~rid = Txnmgr.chain_head t.txnmgr ~page_id:page_key ~rid

let count_frozen_read t block =
  t.frozen_reads_total <- t.frozen_reads_total + 1;
  let key = Frozen.first_row_id block in
  match Hashtbl.find_opt t.frozen_read_counts key with
  | Some r -> incr r
  | None -> Hashtbl.add t.frozen_read_counts key (ref 1)

(* Column projection (DESIGN.md §4h). A projected read decodes the
   index key columns and the columns in [cols]; every other cell reads
   [Value.Null], so a read outside the projection fails loudly instead
   of returning whatever an earlier row left in the scratch ring. *)
let rec mem_col (cols : int array) c i = i < Array.length cols && (cols.(i) = c || mem_col cols c (i + 1))

let mask_unprojected ~key_cols cols (row : Value.t array) =
  match cols with
  | None -> ()
  | Some cols ->
    for c = 0 to Array.length row - 1 do
      if not (mem_col key_cols c 0 || mem_col cols c 0) then row.(c) <- Value.Null
    done

let decode_in_page page ~slot ~key_cols cols dst =
  match cols with
  | None -> Pax.get_into page ~slot dst
  | Some cols ->
    Array.fill dst 0 (Array.length dst) Value.Null;
    Pax.get_cols_into page ~slot key_cols dst;
    Pax.get_cols_into page ~slot cols dst

(* Algorithm 1 over the decoded row. Before-image deltas can write
   columns outside the projection, so a row with a version chain is
   masked again. *)
let visible_into t (txn : txn) ~key_cols cols dst ~deleted ~page_key ~rid =
  let head = chain_head_for t ~page_key ~rid in
  Mvcc.visible_version ~xid:txn.Txnmgr.xid ~snapshot:txn.Txnmgr.snapshot ~current:dst
    ~deleted_in_page:deleted ~head
  && begin
       (match head with Some _ -> mask_unprojected ~key_cols cols dst | None -> ());
       true
     end

(* A frozen row decodes whole from its compressed block, then takes the
   projection's mask. *)
let read_frozen t txn block ~rid ~key_cols cols dst =
  count_frozen_read t block;
  Frozen.get_raw_into block ~row_id:rid dst
  && begin
       mask_unprojected ~key_cols cols dst;
       visible_into t txn ~key_cols cols dst ~deleted:(Frozen.is_deleted block ~row_id:rid)
         ~page_key:(frozen_twin_key t rid) ~rid
     end

(* A located page-tier row: one tuple materialisation, then Algorithm 1. *)
let read_in_page t txn frame ~slot ~rid ~key_cols cols dst =
  let page = Bufmgr.payload frame in
  Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.pax_read;
  decode_in_page page ~slot ~key_cols cols dst;
  visible_into t txn ~key_cols cols dst ~deleted:(Pax.is_deleted page ~slot)
    ~page_key:(Bufmgr.page_id frame) ~rid

(* The row read: decode [rid]'s version visible to [txn] into the
   caller-owned [dst] (a {!Tupbuf} scratch row, DESIGN.md §4h) and say
   whether there is one. {!Mvcc.visible_version} assembles before-image
   deltas into the same buffer in place. With [cols] (see
   [mask_unprojected]) only [key_cols] and [cols] are decoded. *)
(* lint: hot-path *)
let read_into t (txn : txn) ~rid ~key_cols cols dst =
  match Table_tree.locate t.ttree ~row_id:rid with
  | Table_tree.Absent -> false
  | Table_tree.In_page (frame, slot) -> read_in_page t txn frame ~slot ~rid ~key_cols cols dst
  | Table_tree.In_frozen block ->
    (* lint: allow hot-path-alloc — frozen tier: rows past the freeze point are cold (§5.2) *)
    read_frozen t txn block ~rid ~key_cols cols dst

(* A whole-row read into the slot's scratch ring. The returned row obeys
   the {!Tupbuf} ownership rule: valid until this slot reads a few more
   rows of this table; paths that retain a row copy it. *)
let visible_at t (txn : txn) ~rid =
  let row = Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot in
  if read_into t txn ~rid ~key_cols:[||] None row then Some row else None

let get t txn ~rid =
  statement_begin t txn;
  visible_at t txn ~rid

(* ------------------------------------------------------------------ *)
(* Write protocol (§6.2) *)

(* Acquire the twin entry for writing: take the tuple lock *first* (the
   check-then-modify must be atomic against interleaved fibers), then run
   the §6.2 pre-write check. Returns with the tuple lock HELD; the caller
   releases it when the in-place modification is done. Waiting on a
   holder's transaction-ID lock always drops the tuple lock first — the
   holder may need it to finish. *)
let rec write_entry t (txn : txn) ~page_key ~rid =
  let entry = Twin.find_or_add (Txnmgr.twin_for_page t.txnmgr ~page_id:page_key) ~rid in
  Txnmgr.lock_tuple t.txnmgr txn entry;
  match
    Mvcc.check_write ~xid:txn.Txnmgr.xid ~snapshot:txn.Txnmgr.snapshot
      ~head:(Twin.chain_head entry)
  with
  | Mvcc.Write_ok -> entry
  | Mvcc.Write_conflict cts -> (
    match txn.Txnmgr.isolation with
    | Txnmgr.Read_committed ->
      (* update the latest committed version: take a fresher snapshot *)
      Txnmgr.refresh_snapshot t.txnmgr txn;
      if cts <= txn.Txnmgr.snapshot then entry
      else begin
        Txnmgr.unlock_tuple t.txnmgr txn entry;
        write_entry t txn ~page_key ~rid
      end
    | Txnmgr.Repeatable_read ->
      Txnmgr.unlock_tuple t.txnmgr txn entry;
      raise (Txnmgr.Abort (Txnmgr.Conflict, "serialization failure: tuple updated since snapshot")))
  | Mvcc.Write_wait holder_xid -> (
    Txnmgr.unlock_tuple t.txnmgr txn entry;
    (* lint: allow hot-path-alloc — lock wait: an uncommitted writer holds the tuple *)
    Txnmgr.wait_for_txn t.txnmgr txn ~holder_xid;
    match txn.Txnmgr.isolation with
    | Txnmgr.Read_committed ->
      Txnmgr.refresh_snapshot t.txnmgr txn;
      write_entry t txn ~page_key ~rid
    | Txnmgr.Repeatable_read -> (
      (* first-committer-wins: if the holder committed, we must abort *)
      match Twin.chain_head entry with
      | Some h when (not (Clock.is_xid h.Undo.ets)) && h.Undo.ets > txn.Txnmgr.snapshot ->
        raise (Txnmgr.Abort (Txnmgr.Conflict, "serialization failure: concurrent writer committed"))
      | _ -> write_entry t txn ~page_key ~rid))

let sts_for entry =
  match Twin.chain_head entry with Some h -> h.Undo.ets | None -> 0

(* Push this transaction's new version of a tuple: an UNDO log holding
   the before-image [kind] becomes the head of the twin entry's version
   chain and joins the transaction's rollback list. The tuple lock is
   held, so [page_key]'s twin table, which holds [entry], is live. *)
let push_version t (txn : txn) ~page_key entry ~rid kind =
  let undo =
    Undo.make ~table_id:t.tid ~rid ~kind ~sts:(sts_for entry) ~xid:txn.Txnmgr.xid
      ~slot:txn.Txnmgr.slot ~prev:entry.Twin.head
  in
  (* lint: allow hot-path-alloc — the version chain's head cell *)
  entry.Twin.head <- Some undo;
  Twin.note_modifier (Txnmgr.twin_for_page t.txnmgr ~page_id:page_key) ~xid:txn.Txnmgr.xid;
  Txnmgr.add_undo t.txnmgr txn undo

(* [write_entry] may have waited (suspension): the frame the caller saw
   can have been evicted and reloaded meanwhile. Re-locate [rid]; a row
   that is gone, frozen meanwhile or delete-marked releases the tuple
   lock and yields [Absent]. *)
let relocate_live t (txn : txn) entry ~rid =
  match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
  | Table_tree.In_page (frame, slot) as hit when not (Pax.is_deleted (Bufmgr.payload frame) ~slot) ->
    hit
  | _ ->
    Txnmgr.unlock_tuple t.txnmgr txn entry;
    Table_tree.Absent

(* The written row's location once [write_entry] returns with the tuple
   lock held: the location the statement took first, if its frame still
   holds [rid] live (a check of the held frame, no charge); otherwise
   [relocate_live], the one re-walk, for a write whose wait let the leaf
   leave the pool, or the row be deleted or frozen. *)
let live_location t (txn : txn) entry ~rid (held : Table_tree.location) =
  match held with
  | Table_tree.In_page (frame, slot) when Table_tree.holds_live t.ttree frame ~slot ~row_id:rid -> held
  | _ -> relocate_live t txn entry ~rid

(* The equal-key rids of [key_bytes] in the slot's rid scratch, grown
   until they all fit; returns how many. The walk makes no charge. *)
let rec collect_candidates t ix ~slot key_bytes =
  let dst = Tupbuf.rids t.scratch ~slot in
  let n = Index_tree.collect_key ix.ix ~key:key_bytes dst in
  if n <= Array.length dst then n
  else begin
    Tupbuf.grow_rids t.scratch ~slot n;
    collect_candidates t ix ~slot key_bytes
  end

let unique_violation () = raise (Txnmgr.Abort (Txnmgr.Conflict, "unique constraint violation"))

(* Uniqueness against the live row set: a same-key entry conflicts
   unless its row is delete-marked by a committed deletion or by this
   very transaction. An uncommitted deletion by another transaction
   conservatively conflicts (it may yet abort and resurrect the row). *)
let check_candidate t (txn : txn) ~rid =
  let page_key =
    match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
    | Table_tree.Absent -> frozen_twin_key t rid
    | Table_tree.In_page (frame, slot) ->
      if not (Pax.is_deleted (Bufmgr.payload frame) ~slot) then unique_violation ();
      Bufmgr.page_id frame
    | Table_tree.In_frozen b ->
      if not (Frozen.is_deleted b ~row_id:rid) then unique_violation ();
      frozen_twin_key t rid
  in
  (* delete-marked: conflicts only if the deleter is an active foreign
     transaction *)
  match chain_head_for t ~page_key ~rid with
  | Some h when Clock.is_xid h.Undo.ets && not (Int.equal h.Undo.ets txn.Txnmgr.xid) ->
    raise (Txnmgr.Abort (Txnmgr.Conflict, "unique key held by concurrent deleter"))
  | _ -> ()

(* Probe the candidates [i..n) in rid order, skipping the row being
   inserted; the first conflict aborts. *)
let rec check_candidates t txn ~inserting_rid rids n i =
  if i < n then begin
    let rid = rids.(i) in
    if rid <> inserting_rid then check_candidate t txn ~rid;
    check_candidates t txn ~inserting_rid rids n (i + 1)
  end

let check_unique t (txn : txn) ix ~key ~inserting_rid =
  let slot = txn.Txnmgr.slot in
  let n = collect_candidates t ix ~slot key in
  check_candidates t txn ~inserting_rid (Tupbuf.rids t.scratch ~slot) n 0

(* ------------------------------------------------------------------ *)
(* Insert *)

(* A new row's keys: [row_keys]' add, with a unique index's key checked
   against the live row set just before its entry goes in. The check
   takes the key the entry stores, so each key is encoded once, and the
   checks and the adds keep their per-index order. *)
let rec insert_keys t txn ~rid row = function
  | [] -> ()
  | ix :: rest ->
    let key = key_of_row t ix row in
    if ix.ix_unique then check_unique t txn ix ~key ~inserting_rid:rid;
    (* lint: allow hot-path-alloc — the index entry: node growth and splits in the tree *)
    Index_tree.insert ix.ix ~key ~rid;
    insert_keys t txn ~rid row rest

(* lint: hot-path *)
let insert t (txn : txn) row =
  statement_begin t txn;
  if not (Value.Schema.check_row t.tschema row) then
    invalid_arg "Table.insert: row does not match schema";
  let rid =
    (* lint: allow hot-path-alloc — the row append: its hook, and a leaf every leaf_capacity rows *)
    Table_tree.append t.ttree row ~on_page:(fun frame rid ->
        let page_key = Bufmgr.page_id frame in
        let entry = Twin.find_or_add (Txnmgr.twin_for_page t.txnmgr ~page_id:page_key) ~rid in
        push_version t txn ~page_key entry ~rid Undo.Created;
        (* lint: allow hot-path-alloc — the redo record's op, one per write *)
        let op = Record.Insert { table = t.tid; rid; row } in
        log_page_write t txn entry frame op)
  in
  insert_keys t txn ~rid row t.indexes;
  rid

(* ------------------------------------------------------------------ *)
(* Update *)

(* The before-image of [cols]: the cells the closure already decoded,
   the rest read from the page. It outlives the statement, so it is the
   one array the write allocates. *)
let before_image page ~slot reads (cur : Value.t array) (cols : (int * Value.t) array) =
  (* lint: allow hot-path-alloc — the before-image, retained by the undo entry *)
  let before = Array.make (Array.length cols) (0, Value.Null) in
  for i = 0 to Array.length cols - 1 do
    let col = fst cols.(i) in
    let v =
      match reads with
      | Some r when not (mem_col r col 0) -> Pax.get_col page ~slot ~col
      | _ -> cur.(col)
    in
    (* lint: allow hot-path-alloc — the before-image, retained by the undo entry *)
    before.(i) <- (col, v)
  done;
  before

(* The in-place write under the held tuple lock. The closure sees the
   row as of lock grant, so read-modify-write is atomic with respect to
   other writers; it is decoded into a scratch ring row at only the
   columns in [reads] (all with [None]), valid for the duration of the
   closure. The written pairs go to the WAL record as they are. *)
let write_in_page t (txn : txn) ~page_key entry frame ~slot ~rid reads compute =
  let c = Scheduler.current_cost () in
  let page = Bufmgr.payload frame in
  let cur = Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot in
  decode_in_page page ~slot ~key_cols:no_cols reads cur;
  let cols = compute cur in
  let before = before_image page ~slot reads cur cols in
  let key_write = writes_any_key cols t.indexes in
  let old_row = if key_write then Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot else no_row in
  if key_write then Pax.get_into page ~slot old_row;
  (* lint: allow hot-path-alloc — the undo entry's before-image delta *)
  let kind = Undo.Updated before in
  push_version t txn ~page_key entry ~rid kind;
  for i = 0 to Array.length cols - 1 do
    let col, v = cols.(i) in
    Scheduler.charge Component.Effective c.Cost.pax_write_per_col;
    Pax.set_col page ~slot ~col v
  done;
  Bufmgr.mark_dirty frame;
  (* lint: allow hot-path-alloc — the redo record's op, one per write *)
  let op = Record.Update { table = t.tid; rid; cols } in
  log_page_write t txn entry frame op;
  if key_write then begin
    let new_row = Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot in
    Pax.get_into page ~slot new_row;
    (* A key-column update adds the new-key entries; the old-key entries
       stay until GC so older snapshots can still find the row. *)
    (* lint: allow hot-path-alloc — a key-column update: index maintenance, which no TPC-C update needs *)
    key_delta t ~drop:false ~add:true ~rid cols old_row new_row t.indexes
  end

(* The tuple lock is released on both exits of the write, without
   [Fun.protect]'s closures. *)
let update_in_page t (txn : txn) ~page_key held ~rid reads compute =
  let entry = write_entry t txn ~page_key ~rid in
  match live_location t txn entry ~rid held with
  | Table_tree.In_page (frame, slot) -> (
    match write_in_page t txn ~page_key entry frame ~slot ~rid reads compute with
    | () ->
      Txnmgr.unlock_tuple t.txnmgr txn entry;
      true
    | exception e ->
      Txnmgr.unlock_tuple t.txnmgr txn entry;
      raise e)
  | _ -> false

(* Delete-mark a frozen row under MVCC. Frozen rows are updated out of
   place (§5.2 case 3): with [reinsert], that new version is inserted
   into hot storage before the tuple lock is released. *)
let delete_frozen ?reinsert t (txn : txn) block ~rid old_row =
  let page_key = frozen_twin_key t rid in
  let entry = write_entry t txn ~page_key ~rid in
  if Frozen.is_deleted block ~row_id:rid then begin
    Txnmgr.unlock_tuple t.txnmgr txn entry;
    false
  end
  else
    Fun.protect
      ~finally:(fun () -> Txnmgr.unlock_tuple t.txnmgr txn entry)
      (fun () ->
        push_version t txn ~page_key entry ~rid (Undo.Deleted old_row);
        ignore (Table_tree.mark_deleted t.ttree ~row_id:rid);
        log_frozen_write t txn (Record.Delete { table = t.tid; rid });
        (match reinsert with Some row -> ignore (insert t txn row) | None -> ());
        true)

(* A frozen row, delete-marked or not, decoded whole into a row of its
   own: it becomes the delete's before-image. *)
let frozen_row t block ~rid =
  let row = Array.make (Value.Schema.arity t.tschema) Value.Null in
  if Frozen.get_raw_into block ~row_id:rid row then Some row else None

(* The same, for a row that is not delete-marked. *)
let frozen_live_row t block ~rid = if Frozen.is_deleted block ~row_id:rid then None else frozen_row t block ~rid

(* A copy of [row] with the cells of [cols] written over it. *)
let overlay row (cols : (int * Value.t) array) =
  let copy = Array.copy row in
  Array.iter (fun (col, v) -> copy.(col) <- v) cols;
  copy

(* A frozen row decodes whole; the closure sees it masked to [reads]. *)
let update_frozen t txn block ~rid reads compute =
  match frozen_row t block ~rid with
  | None -> false
  | Some old_row ->
    let seen = Array.copy old_row in
    mask_unprojected ~key_cols:no_cols reads seen;
    delete_frozen ~reinsert:(overlay old_row (compute seen)) t txn block ~rid old_row

let col t name =
  match Value.Schema.column_index t.tschema name with
  | c -> c
  | exception Not_found -> invalid_arg (Printf.sprintf "Table.col: %s has no column %s" t.tbl_name name)

(* lint: hot-path *)
let update ?reads t txn ~rid compute =
  statement_begin t txn;
  match Table_tree.locate t.ttree ~row_id:rid with
  | Table_tree.Absent -> false
  | Table_tree.In_page (frame, _) as held ->
    update_in_page t txn ~page_key:(Bufmgr.page_id frame) held ~rid reads compute
  | Table_tree.In_frozen block ->
    (* lint: allow hot-path-alloc — frozen tier: rows past the freeze point are cold (§5.2) *)
    update_frozen t txn block ~rid reads compute

(* ------------------------------------------------------------------ *)
(* Delete *)

(* The delete-mark under the held tuple lock; the before-image is the
   whole row. *)
let delete_in_page t txn ~page_key entry frame ~slot ~rid =
  push_version t txn ~page_key entry ~rid (Undo.Deleted (Pax.get (Bufmgr.payload frame) ~slot));
  ignore (Table_tree.mark_deleted_at t.ttree frame ~slot);
  log_page_write t txn entry frame (Record.Delete { table = t.tid; rid })

let delete t (txn : txn) ~rid =
  statement_begin t txn;
  match Table_tree.locate t.ttree ~row_id:rid with
  | Table_tree.Absent -> false
  | Table_tree.In_page (frame0, _) as held -> (
    let page_key = Bufmgr.page_id frame0 in
    let entry = write_entry t txn ~page_key ~rid in
    match live_location t txn entry ~rid held with
    | Table_tree.In_page (frame, slot) -> (
      match delete_in_page t txn ~page_key entry frame ~slot ~rid with
      | () ->
        Txnmgr.unlock_tuple t.txnmgr txn entry;
        true
      | exception e ->
        Txnmgr.unlock_tuple t.txnmgr txn entry;
        raise e)
    | _ -> false)
  | Table_tree.In_frozen block -> (
    match frozen_row t block ~rid with
    | None -> false
    | Some old_row -> delete_frozen t txn block ~rid old_row)

(* ------------------------------------------------------------------ *)
(* Index access *)

(* Candidate filtering compares the row's key columns to the probe
   values directly: re-encoding a key per candidate ([key_of_row]) would
   allocate a buffer and a string on every index probe. Equivalent to
   comparing encoded keys — [Value.encode_key] is pure, injective and
   self-delimiting (order-preserving concatenation requires it). *)
let rec key_matches_vals (cols : int array) i (row : Value.t array) = function
  | [] -> i = Array.length cols
  | v :: tl ->
    i < Array.length cols && Value.equal row.(cols.(i)) v && key_matches_vals cols (i + 1) row tl

let rec buffer_equals buf key i =
  i >= String.length key
  || (Char.equal (Buffer.nth buf i) (String.unsafe_get key i) && buffer_equals buf key (i + 1))

(* Prefix-scan candidate check: encode the row's key into the table's
   scratch buffer and compare against the tree key in place. *)
let row_key_equals t ix (row : Value.t array) key =
  let buf = t.key_scratch in
  Buffer.clear buf;
  encode_row_key buf ix.key_cols row 0;
  Buffer.length buf = String.length key && buffer_equals buf key 0

(* Probe candidates [i..n) in rid order, the order the index walk
   visits them in; the first visible row whose key still matches is
   blitted into [res]. Every candidate is read, hit or not. *)
let rec probe_candidates t txn ix ~key cols rids n i res hit =
  if i >= n then hit
  else begin
    let rid = rids.(i) in
    let row = Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot in
    let hit =
      if read_into t txn ~rid ~key_cols:ix.key_cols cols row && key_matches_vals ix.key_cols 0 row key
         && hit < 0
      then begin
        Array.blit row 0 res 0 (Array.length row);
        rid
      end
      else hit
    in
    probe_candidates t txn ix ~key cols rids n (i + 1) res hit
  end

(* Point lookup: the candidates are taken first, in one charge-free
   index walk, and every one is probed, hit or not. The first hit is
   blitted into the slot's dedicated result buffer instead of copied —
   so the returned row stays valid across later ring takes, clobbered
   only by this transaction's next [index_lookup_first] on the same
   table. *)
(* lint: hot-path *)
let index_lookup_first ?cols t txn ~index ~key =
  statement_begin t txn;
  let ix = find_index t index in
  let key_bytes = Index_tree.encode_key key in
  let slot = txn.Txnmgr.slot in
  let n = collect_candidates t ix ~slot key_bytes in
  let res = Tupbuf.result t.scratch ~slot in
  let hit = probe_candidates t txn ix ~key cols (Tupbuf.rids t.scratch ~slot) n 0 res (-1) in
  (* lint: allow hot-path-alloc — the result pair, once per statement *)
  if hit < 0 then None else Some (hit, res)

let index_prefix ?cols t txn ~index ~prefix f =
  statement_begin t txn;
  let ix = find_index t index in
  let prefix_bytes = Index_tree.encode_key prefix in
  Index_tree.prefix ix.ix ~prefix:prefix_bytes (fun key rid ->
      let row = Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot in
      if read_into t txn ~rid ~key_cols:ix.key_cols cols row && row_key_equals t ix row key then
        f rid row
      else true)

let scan t txn f =
  statement_begin t txn;
  (* Every row appended when the scan starts, in rid order, including
     delete-marked tuples (they may still be visible to this snapshot),
     rendered through Algorithm 1. A frozen row goes through the point
     read; a page-tier row is read in place from the pinned leaf walk's
     frame and slot, with no second locate. *)
  let to_rid = Table_tree.next_row_id t.ttree - 1 in
  Table_tree.iter_blocks t.ttree (fun b ->
      Frozen.iter_all b (fun rid ~deleted:_ _ ->
          match visible_at t txn ~rid with Some row -> f rid row | None -> ()));
  Table_tree.iter_slots t.ttree ~to_rid (fun frame ~slot ~rid ->
      let row = Tupbuf.take t.scratch ~slot:txn.Txnmgr.slot in
      if read_in_page t txn frame ~slot ~rid ~key_cols:no_cols None row then f rid row)

(* ------------------------------------------------------------------ *)
(* Rollback and GC hooks *)

let pop_chain t ~page_key ~rid (undo : Undo.t) =
  match Txnmgr.twin_of_page t.txnmgr ~page_id:page_key with
  | None -> ()
  | Some twin -> (
    match Twin.find twin ~rid with
    | None -> ()
    | Some entry -> (
      match entry.Twin.head with
      | Some u when u == undo -> entry.Twin.head <- undo.Undo.next
      | _ -> ()))

let rollback_undo t (undo : Undo.t) =
  let rid = undo.Undo.rid in
  match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
  | Table_tree.Absent -> ()
  | Table_tree.In_frozen _ ->
    (match undo.Undo.kind with
    | Undo.Deleted _ -> ignore (Table_tree.undelete t.ttree ~row_id:rid)
    | Undo.Created | Undo.Updated _ -> ());
    pop_chain t ~page_key:(frozen_twin_key t rid) ~rid undo
  | Table_tree.In_page (frame, slot) ->
    let page_key = Bufmgr.page_id frame in
    let page = Bufmgr.payload frame in
    (match undo.Undo.kind with
    | Undo.Created ->
      (* aborted insert: drop its index entries and delete-mark the row,
         both through the slot located above *)
      if not (Pax.is_deleted page ~slot) then begin
        Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.pax_read;
        row_keys t ~add:false ~rid (Pax.get page ~slot) t.indexes;
        ignore (Table_tree.mark_deleted_at t.ttree frame ~slot)
      end
    | Undo.Updated before ->
      (* restore the before-image, and drop the new-key entries this
         update added *)
      let key_write = writes_any_key before t.indexes in
      let new_row = if key_write then Pax.get page ~slot else no_row in
      Array.iter (fun (col, v) -> Pax.set_col page ~slot ~col v) before;
      Bufmgr.mark_dirty frame;
      if key_write then key_delta t ~drop:true ~add:false ~rid before new_row (Pax.get page ~slot) t.indexes
    | Undo.Deleted _ -> ignore (Table_tree.undelete_at t.ttree frame ~slot));
    pop_chain t ~page_key ~rid undo

(* The old-key entries an update of [before]'s columns left for older
   snapshots, dropped once no snapshot needs them: the old row is
   [current] with the before-image laid back over it. *)
let drop_old_keys t ~rid before current =
  key_delta t ~drop:true ~add:false ~rid before (overlay current before) current t.indexes

let gc_reclaim_undo t (undo : Undo.t) =
  let rid = undo.Undo.rid in
  match undo.Undo.kind with
  | Undo.Deleted row ->
    (* the deletion is globally visible: strip the index entries; the
       delete-marked slot itself is reclaimed by freezing *)
    row_keys t ~add:false ~rid row t.indexes
  | Undo.Updated before when writes_any_key before t.indexes -> (
    (* an update that wrote no key column left no old-key entry, and
       costs nothing here; otherwise the row is located once, without
       warming, and a live page slot pays one tuple read *)
    match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
    | Table_tree.In_page (frame, slot) ->
      let page = Bufmgr.payload frame in
      if not (Pax.is_deleted page ~slot) then begin
        Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.pax_read;
        drop_old_keys t ~rid before (Pax.get page ~slot)
      end
    | Table_tree.In_frozen block -> Option.iter (drop_old_keys t ~rid before) (frozen_live_row t block ~rid)
    | Table_tree.Absent -> ())
  | Undo.Updated _ | Undo.Created -> ()

(* ------------------------------------------------------------------ *)
(* Recovery replay *)

(* A replayed write of [cols] into a located slot; the keys it changes
   move in the indexes too (the old entry dropped, the new one added). *)
let raw_write t frame ~slot ~rid cols =
  let page = Bufmgr.payload frame in
  let key_write = writes_any_key cols t.indexes in
  let old_row = if key_write then Pax.get page ~slot else no_row in
  Array.iter (fun (col, v) -> Pax.set_col page ~slot ~col v) cols;
  Bufmgr.mark_dirty frame;
  if key_write then key_delta t ~drop:true ~add:true ~rid cols old_row (Pax.get page ~slot) t.indexes

(* Replay must be idempotent: recovery starts from whatever leaf images
   last reached durable media, and a cleaner may have flushed rows
   inserted *after* the checkpoint — so a replayed insert can find its
   rid already present. It overwrites the slot in place instead of
   raising. A live slot is written as an update of every column, so its
   keys move from the row it holds to the replayed one (none move when
   the insert is already in); a delete-marked slot's entries went with
   its delete, so all of them are added back. *)
let raw_insert t ~rid row =
  match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
  | Table_tree.In_page (frame, slot) ->
    let page = Bufmgr.payload frame in
    if Pax.is_deleted page ~slot then begin
      Array.iteri (fun col v -> Pax.set_col page ~slot ~col v) row;
      Pax.unmark_deleted page ~slot;
      Bufmgr.mark_dirty frame;
      row_keys t ~add:true ~rid row t.indexes
    end
    else raw_write t frame ~slot ~rid (Array.mapi (fun col v -> (col, v)) row)
  | Table_tree.In_frozen _ -> () (* block images are immutable and already durable *)
  | Table_tree.Absent ->
    Table_tree.append_exact t.ttree ~row_id:rid row;
    row_keys t ~add:true ~rid row t.indexes

let raw_exists t ~rid =
  match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
  | Table_tree.Absent -> false
  | Table_tree.In_page _ | Table_tree.In_frozen _ -> true

let raw_update t ~rid cols =
  match Table_tree.locate ~touch:false t.ttree ~row_id:rid with
  | Table_tree.In_page (frame, slot) -> raw_write t frame ~slot ~rid cols
  | Table_tree.In_frozen _ | Table_tree.Absent -> ()

(* One locate, warming the leaf as a delete does; a live row's entries
   are dropped, then the row is delete-marked through the slot located.
   A frozen row is marked through [Table_tree.mark_deleted], which keeps
   the tree's live count (its locate is the frozen tier's bisection,
   which touches no leaf). *)
let raw_delete t ~rid =
  match Table_tree.locate t.ttree ~row_id:rid with
  | Table_tree.In_page (frame, slot) ->
    let page = Bufmgr.payload frame in
    if not (Pax.is_deleted page ~slot) then begin
      row_keys t ~add:false ~rid (Pax.get page ~slot) t.indexes;
      ignore (Table_tree.mark_deleted_at t.ttree frame ~slot)
    end
  | Table_tree.In_frozen block ->
    Option.iter (fun row -> row_keys t ~add:false ~rid row t.indexes) (frozen_live_row t block ~rid);
    ignore (Table_tree.mark_deleted t.ttree ~row_id:rid)
  | Table_tree.Absent -> ()

let maybe_freeze t ~max_access =
  Table_tree.decay_access_counts t.ttree;
  Table_tree.freeze_cold_prefix t.ttree ~max_access

let frozen_chain_key t ~rid = frozen_twin_key t rid

let frozen_reads t = t.frozen_reads_total

(* §5.2 case 3: "frequently accessed frozen pages, identified by
   exceeding a predefined row_id read threshold, are marked as deleted
   and re-inserted into hot storage, requiring updates to related table
   indexes." Warming is an update-shaped MVCC operation: each live row
   of a hot block is deleted in place (with an UNDO log) and re-inserted
   under a fresh row id, so concurrent snapshots stay consistent. *)
let warm_hot_frozen t txn ~read_threshold =
  let hot_blocks =
    Hashtbl.fold (fun key r acc -> if !r > read_threshold then key :: acc else acc)
      t.frozen_read_counts []
  in
  let warmed = ref 0 in
  List.iter
    (fun first_rid ->
      Hashtbl.remove t.frozen_read_counts first_rid;
      match Table_tree.locate ~touch:false t.ttree ~row_id:first_rid with
      | Table_tree.In_frozen block ->
        let rids = ref [] in
        Frozen.iter_all block (fun rid ~deleted row ->
            ignore row;
            if not deleted then rids := rid :: !rids);
        List.iter
          (fun rid ->
            (* out-of-place move via the normal update machinery with an
               identity column list: delete frozen copy + hot re-insert *)
            if update_frozen t txn block ~rid None (fun _ -> [||]) then incr warmed)
          (List.rev !rids)
      | _ -> ())
    hot_blocks;
  !warmed
