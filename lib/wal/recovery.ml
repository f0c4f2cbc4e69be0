module Walstore = Phoebe_io.Walstore

type apply = {
  insert : table:int -> rid:int -> Phoebe_storage.Value.t array -> unit;
  update : table:int -> rid:int -> (int * Phoebe_storage.Value.t) array -> unit;
  delete : table:int -> rid:int -> unit;
}

type in_doubt = { gxid : int; coord : int; ops : Record.t list }

type tail = { file : int; last_lsn : int; end_offset : int }

type report = {
  files_read : int;
  records_read : int;
  committed_txns : int;
  ops_replayed : int;
  ops_dropped : int;
  torn_tails : int;
  bytes_skipped : int;
  corrupt_records : int;
  in_doubt : in_doubt list;
  tails : tail list;
  max_gsn : int;
}

(* Inserts are applied first, in (table, rid) order, then everything
   else in (GSN, slot, LSN) order, all after the caller's leading key.
   Row ids are allocated monotonically and never reused, so every
   update/delete of a rid follows its insert anyway; ordering the
   inserts by rid (rather than GSN) keeps the rebuild appending in
   allocation order — two inserts that landed on different pages carry
   GSNs from different Lamport clocks, and their GSN order need not
   match rid order. *)
let compare_op (la, (a : Record.t)) (lb, (b : Record.t)) =
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    match (a.Record.op, b.Record.op) with
    | Record.Insert { table = ta; rid = ra; _ }, Record.Insert { table = tb; rid = rb; _ } ->
      if ta <> tb then Int.compare ta tb else Int.compare ra rb
    | Record.Insert _, _ -> -1
    | _, Record.Insert _ -> 1
    | _ ->
      let c = Int.compare a.gsn b.gsn in
      if c <> 0 then c
      else begin
        let c = Int.compare a.slot b.slot in
        if c <> 0 then c else Int.compare a.lsn b.lsn
      end

let order_ops ops = List.sort compare_op ops

let apply_op apply (r : Record.t) =
  match r.Record.op with
  | Record.Insert { table; rid; row } -> apply.insert ~table ~rid row
  | Record.Update { table; rid; cols } -> apply.update ~table ~rid cols
  | Record.Delete { table; rid } -> apply.delete ~table ~rid
  | Record.Commit _ | Record.Abort _ | Record.Prepare _ -> ()

(* A transaction's data records carry no xid (they are ordered within
   their slot's file); its commit record in the same file covers every
   earlier record of that slot... but a slot runs many transactions, so
   we attribute a slot's data records to the next commit record *in that
   slot's LSN order* — exactly how the slot writer interleaves them:
   [ops of txn1][commit txn1][ops of txn2][commit txn2]... A trailing run
   of data records without a commit belongs to an uncommitted
   transaction and is never applied.

   Two-phase commit adds one wrinkle: a run may end
   [ops][Prepare {gxid; coord}] with the decision record (Commit/Abort)
   not (yet) seen. A fiber that has prepared keeps its slot parked
   until the decision arrives, so at most one prepared run exists per
   file and it is always the *last* run. It is held as in-doubt until
   its decision record arrives or [resolve] decides it. *)
type run = {
  mutable pending : Record.t list;  (** newest first *)
  mutable prepared : in_doubt option;
}

type runs = {
  lead : int -> int;
  files : (int, run) Hashtbl.t;
  mutable committed : (int * Record.t) list;
  mutable commits : int;
  mutable dropped : int;
}

let runs ?(lead = fun _ -> 0) () =
  { lead; files = Hashtbl.create 16; committed = []; commits = 0; dropped = 0 }

let commit_ops runs ~file ops =
  let lead = runs.lead file in
  runs.committed <- List.fold_left (fun acc r -> (lead, r) :: acc) runs.committed ops

let feed runs ~file (r : Record.t) =
  let run =
    match Hashtbl.find_opt runs.files file with
    | Some run -> run
    | None ->
      let run = { pending = []; prepared = None } in
      Hashtbl.add runs.files file run;
      run
  in
  match r.Record.op with
  | Record.Commit _ ->
    runs.commits <- runs.commits + 1;
    Option.iter (fun d -> commit_ops runs ~file d.ops) run.prepared;
    commit_ops runs ~file run.pending;
    run.prepared <- None;
    run.pending <- []
  | Record.Abort _ ->
    Option.iter (fun d -> runs.dropped <- runs.dropped + List.length d.ops) run.prepared;
    runs.dropped <- runs.dropped + List.length run.pending;
    run.prepared <- None;
    run.pending <- []
  | Record.Prepare { gxid; coord; _ } ->
    (* the prepared fiber holds its slot until the decision, so a
       second Prepare before a Commit/Abort cannot happen *)
    if Option.is_some run.prepared then
      raise
        (Phoebe_util.Phoebe_error.Bug
           {
             subsystem = "recovery";
             context =
               Printf.sprintf "slot=%d: two Prepare records without a decision between" r.Record.slot;
           });
    run.prepared <- Some { gxid; coord; ops = List.rev run.pending };
    run.pending <- []
  | Record.Insert _ | Record.Update _ | Record.Delete _ -> run.pending <- r :: run.pending

let take_committed runs =
  let ops = runs.committed in
  runs.committed <- [];
  ops

let resolve runs ~decide =
  Hashtbl.fold
    (fun file run acc -> match run.prepared with Some d -> (file, run, d) :: acc | None -> acc)
    runs.files []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> List.map (fun (file, run, d) ->
         run.prepared <- None;
         if decide d then commit_ops runs ~file d.ops
         else runs.dropped <- runs.dropped + List.length d.ops;
         d)

let replay ?(after = fun _ -> -1) ?(decide_in_doubt = fun _ -> false) store apply =
  let files = Walstore.files store in
  let runs = runs () in
  let records_read = ref 0 in
  let torn_tails = ref 0 in
  let bytes_skipped = ref 0 in
  let corrupt = ref 0 in
  let tails = ref [] in
  let max_gsn = ref 0 in
  List.iter
    (fun file ->
      let records, stop = Record.decode_all (Walstore.contents store ~file) in
      (match stop.Record.reason with
      | Record.Eof -> ()
      | Record.Torn ->
        incr torn_tails;
        bytes_skipped := !bytes_skipped + stop.Record.bytes_skipped
      | Record.Corrupt ->
        incr corrupt;
        bytes_skipped := !bytes_skipped + stop.Record.bytes_skipped);
      (* The file is kept up to its last transaction boundary: the end of
         its last Commit, Abort or Prepare (a trailing prepared run is in
         doubt and stays). Data records after it belong to a transaction
         that never committed; left in place, they would be attributed to
         the next commit a resumed writer appends behind them. *)
      let last_lsn = ref (-1) and file_gsn = ref 0 and kept_gsn = ref 0 in
      let trailing = ref [] in
      (* records are already in LSN order within the file *)
      List.iter
        (fun (r : Record.t) ->
          file_gsn := max !file_gsn r.Record.gsn;
          (match r.Record.op with
          | Record.Commit _ | Record.Abort _ | Record.Prepare _ ->
            last_lsn := r.Record.lsn;
            kept_gsn := !file_gsn;
            trailing := []
          | Record.Insert _ | Record.Update _ | Record.Delete _ -> trailing := r :: !trailing);
          let frontier = after r.Record.slot in
          if r.Record.lsn > frontier then begin
            incr records_read;
            feed runs ~file r
          end
          else if Int.equal r.Record.lsn frontier then
            (* The checkpoint frontier must sit on a transaction
               boundary: the snapshot was taken with no transaction
               active, so the last record it covers in each slot is a
               Commit or Abort. A frontier that lands on a data record
               would replay that transaction's suffix under the *next*
               commit — silent corruption — so refuse loudly instead. *)
            match r.Record.op with
            | Record.Commit _ | Record.Abort _ -> ()
            | _ ->
              raise
                (Phoebe_util.Phoebe_error.Bug
                   {
                     subsystem = "recovery";
                     context =
                       Printf.sprintf
                         "checkpoint frontier slot=%d lsn=%d lands mid-transaction on a data \
                          record"
                         r.Record.slot r.Record.lsn;
                   }))
        records;
      max_gsn := max !max_gsn !kept_gsn;
      (* a record's encoding is canonical (the CRC covers exactly the
         bytes [Record.encode] wrote), so the cut records span their
         re-encoded sizes *)
      let cut = List.fold_left (fun acc r -> acc + Record.size_bytes r) 0 !trailing in
      tails := { file; last_lsn = !last_lsn; end_offset = stop.Record.stop_offset - cut } :: !tails)
    files;
  (* a run still prepared at the end of its file lost its decision
     record to the crash: the branch is in doubt *)
  let in_doubt = resolve runs ~decide:decide_in_doubt in
  let ordered = order_ops (take_committed runs) in
  List.iter (fun (_, r) -> apply_op apply r) ordered;
  {
    files_read = List.length files;
    records_read = !records_read;
    committed_txns = runs.commits;
    ops_replayed = List.length ordered;
    ops_dropped = Hashtbl.fold (fun _ run n -> n + List.length run.pending) runs.files runs.dropped;
    torn_tails = !torn_tails;
    bytes_skipped = !bytes_skipped;
    corrupt_records = !corrupt;
    in_doubt;
    tails = List.rev !tails;
    max_gsn = !max_gsn;
  }

let committed_transactions store =
  let commits =
    List.concat_map
      (fun file ->
        List.filter_map
          (fun (r : Record.t) ->
            match r.Record.op with Record.Commit { xid; cts } -> Some (xid, cts) | _ -> None)
          (fst (Record.decode_all (Walstore.contents store ~file))))
      (Walstore.files store)
  in
  List.sort (fun (_, a) (_, b) -> Int.compare a b) commits
