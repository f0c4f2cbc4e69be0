module Pax = Phoebe_storage.Pax
module Frozen = Phoebe_storage.Frozen
module Bufmgr = Phoebe_storage.Bufmgr
module Latch = Phoebe_storage.Latch
module Value = Phoebe_storage.Value
module Pagestore = Phoebe_io.Pagestore
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost

let inner_fanout = 64
let leaves_per_block = 4

type leaf_swip = Pax.t Bufmgr.swip

type node = Inner of inner | Leaf of leaf_swip

and inner = {
  mutable keys : int array;  (** [keys.(i)] = min row id of [children.(i)] *)
  mutable children : node array;
  mutable n : int;
  ilatch : Latch.t;
}

(* Declared before [t] so that [t]'s same-named fields take precedence. *)
type manifest = {
  leaves : (int * int) list;
  block_ids : int list;
  next_rid : int;
  max_frozen : int;
}

type t = {
  tname : string;
  tschema : Value.Schema.t;
  buf : Pax.t Bufmgr.t;
  block_store : Pagestore.t;
  leaf_capacity : int;
  append_latch : Latch.t;  (** serialises the rightmost-leaf append path *)
  mutable root : node;
  mutable rightmost : leaf_swip;
  mutable next_rid : int;
  mutable max_frozen : int;
  mutable blocks : Frozen.t array;  (** sorted by first_row_id *)
  mutable block_ids : int array;  (** Data Block File id of each block *)
  block_id_alloc : unit -> int;
  mutable live_tuples : int;
  mutable nleaves : int;
  (* Swizzled-leaf fence cache: the last leaf a point lookup descended
     to, with its row-id fences. A hit skips the per-level descent and
     the buffer-manager resolve. Safe because hot rows never migrate
     between leaves: the only row movement is freezing, which drops the
     leaf's frame (a non-resident frame is a miss) and advances
     [max_frozen] past its live rows (the frozen branch intercepts
     them first). *)
  mutable fc_swip : leaf_swip;
  mutable fc_lo : int;  (** cache valid iff [fc_lo <= fc_hi] *)
  mutable fc_hi : int;
  (* Where the last [locate] found its row (see [locate]'s contract):
     the leaf frame of a slot, the [blocks] index of a frozen row. *)
  mutable loc_frame : Pax.t Bufmgr.frame;
  mutable loc_block : int;
}

let charge_effective n = Scheduler.charge Component.Effective n

let new_inner child key =
  let node = { keys = Array.make inner_fanout key; children = Array.make inner_fanout child; n = 1; ilatch = Latch.create () } in
  Latch.set_class node.ilatch "table_tree.ilatch";
  node

(* New leaves are allocated into the appending worker's buffer partition
   (paper: each worker manages its own buffer pool partition). *)
let current_partition buf =
  if Scheduler.in_fiber () then Scheduler.current_worker () mod Bufmgr.n_partitions buf else 0

let name t = t.tname
let schema t = t.tschema
let next_row_id t = t.next_rid
let max_frozen_row_id t = t.max_frozen
let tuple_count_estimate t = t.live_tuples
let frozen_block_count t = Array.length t.blocks
let leaf_count t = t.nleaves

(* ------------------------------------------------------------------ *)
(* Right-edge append path *)

(* Insert a new rightmost leaf with minimum key [key]. Returns the new
   root if the previous one split all the way up. *)
let rec push_rightmost node key leaf =
  match node with
  | Leaf _ -> invalid_arg "push_rightmost: reached a leaf"
  | Inner inner -> (
    let last = inner.children.(inner.n - 1) in
    match last with
    | Leaf _ ->
      if inner.n < inner_fanout then begin
        inner.keys.(inner.n) <- key;
        inner.children.(inner.n) <- Leaf leaf;
        inner.n <- inner.n + 1;
        None
      end
      else Some (new_inner (Leaf leaf) key)
    | Inner _ -> (
      match push_rightmost last key leaf with
      | None -> None
      | Some fresh ->
        if inner.n < inner_fanout then begin
          inner.keys.(inner.n) <- key;
          inner.children.(inner.n) <- Inner fresh;
          inner.n <- inner.n + 1;
          None
        end
        else Some (new_inner (Inner fresh) key)))

let add_rightmost_leaf t key leaf =
  match push_rightmost t.root key leaf with
  | None -> ()
  | Some overflow ->
    (* grow the tree by one level *)
    let root = new_inner t.root (match t.root with Inner i -> i.keys.(0) | Leaf _ -> key) in
    root.keys.(1) <- key;
    root.children.(1) <- Inner overflow;
    root.n <- 2;
    t.root <- Inner root

(* The whole append path runs under the tree's append latch: row-id
   assignment, the rightmost-leaf switch and the in-page append must be
   atomic against fibers interleaving on other cores, or row ids would
   land out of order across leaves. The rightmost leaf is an inherent
   serialisation point of the monotone-row_id design. *)
let append ?on_page t row =
  let c = Scheduler.current_cost () in
  Latch.with_exclusive t.append_latch (fun () ->
      let rid = t.next_rid in
      t.next_rid <- t.next_rid + 1;
      let frame = Bufmgr.resolve t.buf t.rightmost in
      let frame =
        let page = Bufmgr.payload frame in
        if Pax.is_full page then begin
          charge_effective c.Cost.btree_leaf_op;
          let fresh = Pax.create t.tschema ~capacity:t.leaf_capacity in
          (* the new rightmost inherits the GSN chain of the old one so
             WAL replay order keeps following row-id order across leaf
             boundaries *)
          Pax.set_gsn fresh (Pax.gsn page);
          let nframe = Bufmgr.alloc t.buf ~partition:(current_partition t.buf) fresh in
          let nswip = Bufmgr.swip_of nframe in
          Bufmgr.set_parent nframe nswip;
          t.rightmost <- nswip;
          t.nleaves <- t.nleaves + 1;
          add_rightmost_leaf t rid nswip;
          nframe
        end
        else frame
      in
      charge_effective c.Cost.btree_leaf_op;
      let page = Bufmgr.payload frame in
      ignore (Pax.append page ~row_id:rid row);
      Bufmgr.mark_dirty frame;
      Bufmgr.update_size t.buf frame;
      t.live_tuples <- t.live_tuples + 1;
      (* runs inside the append latch: WAL logging here keeps per-table
         GSN order aligned with row-id order *)
      (match on_page with Some f -> f frame rid | None -> ());
      rid)

let append_exact t ~row_id row =
  if row_id < t.next_rid then invalid_arg "Table_tree.append_exact: row id in the past";
  t.next_rid <- row_id;
  ignore (append t row)

(* ------------------------------------------------------------------ *)
(* Descent *)

(* Index of the child whose subtree contains [rid]: the rightmost child
   whose minimum key is <= rid. *)
let rec child_bound inner rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if inner.keys.(mid) <= rid then child_bound inner rid mid hi else child_bound inner rid lo (mid - 1)

let child_index inner rid = child_bound inner rid 0 (inner.n - 1)

let child_at inner rid = inner.children.(child_index inner rid)

(* Index of the frozen block holding [rid] in [lo, hi], or -1. *)
let rec block_index (blocks : Frozen.t array) rid lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let b = blocks.(mid) in
    if rid < Frozen.first_row_id b then block_index blocks rid lo (mid - 1)
    else if rid > Frozen.last_row_id b then block_index blocks rid (mid + 1) hi
    else mid

let absent = -1
let frozen = -2

(* The slot of [row_id] in a resident leaf frame, the frame left for the
   caller. *)
let in_frame t frame ~row_id =
  t.loc_frame <- frame;
  Pax.find (Bufmgr.payload frame) ~row_id

let locate_in_leaf ~touch t swip ~row_id =
  (* constant optional arguments: [~touch] of a variable would box a
     fresh [Some] on every descent *)
  let frame = if touch then Bufmgr.resolve t.buf swip else Bufmgr.resolve ~touch:false t.buf swip in
  let page = Bufmgr.payload frame in
  if not (Pax.is_empty page) then begin
    t.fc_swip <- swip;
    t.fc_lo <- Pax.min_row_id page;
    t.fc_hi <- Pax.max_row_id page
  end;
  in_frame t frame ~row_id

let rec locate_descend ~touch t node ~row_id =
  match node with
  | Leaf swip -> locate_in_leaf ~touch t swip ~row_id
  | Inner inner ->
    if inner.n = 0 || inner.keys.(0) > row_id then absent
    else begin
      charge_effective (Scheduler.current_cost ()).Cost.btree_search_per_level;
      locate_descend ~touch t (Latch.optimistic_read_with inner.ilatch child_at inner row_id) ~row_id
    end

(* lint: hot-path *)
let locate ?(touch = true) t ~row_id =
  if row_id <= 0 || row_id >= t.next_rid then absent
  else if row_id <= t.max_frozen then
    match block_index t.blocks row_id 0 (Array.length t.blocks - 1) with
    | -1 -> absent
    | i ->
      Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.frozen_decode_per_tuple;
      t.loc_block <- i;
      frozen
  else if row_id >= t.fc_lo && row_id <= t.fc_hi then begin
    match t.fc_swip.Bufmgr.ptr with
    | Bufmgr.Swizzled frame when Bufmgr.is_resident frame ->
      (* fence hit: one probe charge replaces the per-level descent and
         the buffer-manager resolve. The resolve's bookkeeping still
         happens, charge-free and before the charge can suspend: without
         it a leaf served from the cache would look cold to eviction and
         to the freeze policy. *)
      Bufmgr.touch_frame t.buf frame ~touch;
      charge_effective (Scheduler.current_cost ()).Cost.btree_search_per_level;
      if not (Bufmgr.is_resident frame) then locate_descend ~touch t t.root ~row_id
      else in_frame t frame ~row_id
    | _ -> locate_descend ~touch t t.root ~row_id
  end
  else locate_descend ~touch t t.root ~row_id

let located_frame t = t.loc_frame
let located_block t = t.blocks.(t.loc_block)

(* A frozen row that is not delete-marked, decoded into a row of its
   own. *)
let frozen_live_row t b ~row_id =
  if Frozen.is_deleted b ~row_id then None
  else
    let row = Array.make (Value.Schema.arity t.tschema) Value.Null in
    if Frozen.get_raw_into b ~row_id row then Some row else None

let read ?(touch = true) t ~row_id =
  let c = Scheduler.current_cost () in
  match locate ~touch t ~row_id with
  | -1 -> None
  | -2 -> frozen_live_row t (located_block t) ~row_id
  | slot ->
    let page = Bufmgr.payload (located_frame t) in
    if Pax.is_deleted page ~slot then None
    else begin
      charge_effective c.Cost.pax_read;
      Some (Pax.get page ~slot)
    end

(* Whether a frame located earlier still holds [row_id] live at [slot].
   A page faulted back in gets a fresh frame, and eviction and drop empty
   the old one, so a frame that is still resident is its page's only
   frame. The check reads the held frame and charges nothing; a hit
   refreshes the frame's eviction recency (charge-free, as on the
   fence-hit path), since the caller goes on to write through it, and
   leaves the frame as the located one, as a locate would. *)
let holds_live t frame ~slot ~row_id =
  Bufmgr.is_resident frame
  && begin
       let page = Bufmgr.payload frame in
       Int.equal (Pax.row_id_at page ~slot) row_id && not (Pax.is_deleted page ~slot)
     end
  && begin
       Bufmgr.touch_frame t.buf frame ~touch:false;
       t.loc_frame <- frame;
       true
     end

(* Set or clear the delete mark of a located slot; false if it already
   had that state. Latch acquisition can spin across suspensions: the
   frame is pinned so eviction cannot detach it meanwhile. *)
let set_delete_mark t frame ~slot ~deleted =
  Bufmgr.pin frame;
  Fun.protect
    ~finally:(fun () -> Bufmgr.unpin frame)
    (fun () ->
      Latch.with_exclusive (Bufmgr.latch frame) (fun () ->
          let page = Bufmgr.payload frame in
          if Bool.equal (Pax.is_deleted page ~slot) deleted then false
          else begin
            if deleted then Pax.mark_deleted page ~slot else Pax.unmark_deleted page ~slot;
            Bufmgr.mark_dirty frame;
            t.live_tuples <- t.live_tuples + (if deleted then -1 else 1);
            true
          end))

let mark_deleted_at t frame ~slot = set_delete_mark t frame ~slot ~deleted:true
let undelete_at t frame ~slot = set_delete_mark t frame ~slot ~deleted:false

let mark_deleted t ~row_id =
  match locate ~touch:true t ~row_id with
  | -1 -> false
  | -2 ->
    let ok = Frozen.mark_deleted (located_block t) ~row_id in
    if ok then t.live_tuples <- t.live_tuples - 1;
    ok
  | slot -> mark_deleted_at t (located_frame t) ~slot

let undelete t ~row_id =
  match locate ~touch:false t ~row_id with
  | -1 -> false
  | -2 ->
    let ok = Frozen.unmark_deleted (located_block t) ~row_id in
    if ok then t.live_tuples <- t.live_tuples + 1;
    ok
  | slot -> undelete_at t (located_frame t) ~slot

(* ------------------------------------------------------------------ *)
(* Scan *)

(* First leaf that contains a row id >= [rid]; row ids may have gaps
   (aborted inserts, recovery replay), so a subtree picked by separator
   keys can turn out to be exhausted — fall through to the next child. *)
let leaf_at_or_after t ~touch node rid =
  let rec go node =
    match node with
    | Leaf swip ->
      let frame = Bufmgr.resolve ~touch t.buf swip in
      let page = Bufmgr.payload frame in
      if Pax.is_empty page || Pax.max_row_id page < rid then None else Some swip
    | Inner inner ->
      if inner.n = 0 then None
      else begin
        let start = if inner.keys.(0) > rid then 0 else child_index inner rid in
        let rec try_child i =
          if i >= inner.n then None
          else match go inner.children.(i) with Some s -> Some s | None -> try_child (i + 1)
        in
        try_child start
      end
  in
  go node

(* The pinned leaf walk: visit, in row-id order, each leaf holding a
   row id in [cursor, stop] that has been appended. [f] may fault other
   pages (long I/O waits), so the leaf stays pinned while it runs:
   eviction cannot pull it out from under the walk. *)
let rec walk_leaves ~touch t cursor ~stop f =
  if cursor <= stop && cursor < t.next_rid then
    match leaf_at_or_after t ~touch t.root cursor with
    | None -> ()
    | Some swip ->
      let frame = Bufmgr.resolve ~touch t.buf swip in
      Bufmgr.pin frame;
      let next =
        Fun.protect
          ~finally:(fun () -> Bufmgr.unpin frame)
          (fun () ->
            f frame;
            Pax.max_row_id (Bufmgr.payload frame) + 1)
      in
      walk_leaves ~touch t next ~stop f

(* The page tier's slots with row ids in [from_rid, stop], delete-marked
   ones too, in row-id order, on the pinned leaf walk. *)
let iter_slots_from ~touch t ~from_rid ~stop f =
  walk_leaves ~touch t (max from_rid (t.max_frozen + 1)) ~stop (fun frame ->
      let page = Bufmgr.payload frame in
      for slot = 0 to Pax.count page - 1 do
        let rid = Pax.row_id_at page ~slot in
        if rid >= from_rid && rid <= stop then f frame ~slot ~rid
      done)

let iter_slots t ~to_rid f = iter_slots_from ~touch:false t ~from_rid:1 ~stop:to_rid f

let scan ?(touch = false) t ?(from_rid = 1) ?to_rid f =
  let stop = match to_rid with Some r -> r | None -> t.next_rid - 1 in
  (* frozen tier *)
  Array.iter
    (fun b ->
      if Frozen.last_row_id b >= from_rid && Frozen.first_row_id b <= stop then
        Frozen.iter_live b (fun rid row -> if rid >= from_rid && rid <= stop then f rid row))
    t.blocks;
  (* page tier *)
  iter_slots_from ~touch t ~from_rid ~stop (fun frame ~slot ~rid ->
      let page = Bufmgr.payload frame in
      if not (Pax.is_deleted page ~slot) then f rid (Pax.get page ~slot))

(* ------------------------------------------------------------------ *)
(* Freeze (temperature exchange, §5.2) *)

(* Remove the leftmost leaf from the inner structure. *)
let remove_leftmost t =
  let rec go node =
    match node with
    | Leaf _ -> invalid_arg "remove_leftmost: root is a leaf"
    | Inner inner -> (
      match inner.children.(0) with
      | Leaf _ ->
        Array.blit inner.children 1 inner.children 0 (inner.n - 1);
        Array.blit inner.keys 1 inner.keys 0 (inner.n - 1);
        inner.n <- inner.n - 1;
        inner.n = 0
      | Inner _ as child ->
        if go child then begin
          Array.blit inner.children 1 inner.children 0 (inner.n - 1);
          Array.blit inner.keys 1 inner.keys 0 (inner.n - 1);
          inner.n <- inner.n - 1
        end;
        inner.n = 0)
  in
  ignore (go t.root);
  t.nleaves <- t.nleaves - 1

let rec leftmost_leaf node =
  match node with
  | Leaf swip -> Some swip
  | Inner inner -> if inner.n = 0 then None else leftmost_leaf inner.children.(0)

let freeze_group t pages =
  match pages with
  | [] -> 0
  | _ ->
    let block = Frozen.freeze pages in
    let encoded = Frozen.encode block in
    (* Block file ids live in their own namespace on the block device. *)
    let block_id = t.block_id_alloc () in
    Pagestore.write t.block_store ~page_id:block_id encoded;
    t.blocks <- Array.append t.blocks [| block |];
    t.block_ids <- Array.append t.block_ids [| block_id |];
    t.max_frozen <- max t.max_frozen (Frozen.last_row_id block);
    Frozen.count block

let freeze_prefix t ~up_to_rid =
  let frozen_tuples = ref 0 in
  let pending = ref [] and pending_n = ref 0 in
  let flush () =
    frozen_tuples := !frozen_tuples + freeze_group t (List.rev !pending);
    pending := [];
    pending_n := 0
  in
  let continue = ref true in
  while !continue do
    match leftmost_leaf t.root with
    | None -> continue := false
    | Some swip ->
      (* Never freeze the rightmost (append) leaf. *)
      if swip == t.rightmost then continue := false
      else begin
        let frame = Bufmgr.resolve ~touch:false t.buf swip in
        let page = Bufmgr.payload frame in
        if Pax.is_empty page || Pax.max_row_id page > up_to_rid then continue := false
        else begin
          if Pax.live_count page > 0 then begin
            pending := page :: !pending;
            incr pending_n
          end
          else t.max_frozen <- max t.max_frozen (Pax.max_row_id page);
          remove_leftmost t;
          Bufmgr.drop t.buf frame;
          if !pending_n >= leaves_per_block then flush ()
        end
      end
  done;
  flush ();
  !frozen_tuples

let freeze_cold_prefix t ~max_access =
  (* Find the longest prefix of leaves with OLTP access counts below the
     threshold; stop at the first hot leaf (frozen data must stay
     consecutive in row_id order). *)
  let up_to = ref t.max_frozen in
  let continue = ref true in
  let cursor = ref (t.max_frozen + 1) in
  while !continue && !cursor < t.next_rid do
    match leaf_at_or_after t ~touch:false t.root !cursor with
    | None -> continue := false
    | Some swip ->
      if swip == t.rightmost then continue := false
      else begin
        let frame = Bufmgr.resolve ~touch:false t.buf swip in
        let page = Bufmgr.payload frame in
        if Bufmgr.access_count frame <= max_access then begin
          up_to := Pax.max_row_id page;
          cursor := Pax.max_row_id page + 1
        end
        else continue := false
      end
  done;
  if !up_to > t.max_frozen then freeze_prefix t ~up_to_rid:!up_to else 0

let decay_access_counts t =
  let rec go node =
    match node with
    | Leaf swip -> (
      (* only resident leaves carry counters; cold leaves are cold by definition *)
      match Bufmgr.resident_frame_of_swip swip with
      | Some frame -> Bufmgr.halve_access_count frame
      | None -> ())
    | Inner inner ->
      for i = 0 to inner.n - 1 do
        go inner.children.(i)
      done
  in
  go t.root

let iter_blocks t f = Array.iter f t.blocks

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

let manifest t : manifest =
  (* Write back dirty resident leaves so every page id in the manifest is
     durable in the Data Page File (cold leaves are durable by
     construction: eviction writes back). Each leaf's minimum row id is
     its separator key in the parent inner node, so cold leaves need no
     faulting. *)
  let acc = ref [] in
  let resident = ref [] in
  let rec go node key =
    match node with
    | Leaf swip ->
      (match Bufmgr.resident_frame_of_swip swip with
      | Some frame -> resident := frame :: !resident
      | None -> ());
      acc := (Bufmgr.page_id_of_swip swip, key) :: !acc
    | Inner inner ->
      for i = 0 to inner.n - 1 do
        go inner.children.(i) inner.keys.(i)
      done
  in
  (match t.root with
  | Inner inner when inner.n > 0 -> go t.root inner.keys.(0)
  | _ -> ());
  (* one vectored submission per K dirty leaves instead of a device op
     per page *)
  Bufmgr.write_back_batch t.buf (List.rev !resident);
  {
    leaves = List.rev !acc;
    block_ids = Array.to_list t.block_ids;
    next_rid = t.next_rid;
    max_frozen = t.max_frozen;
  }

let compression_ratio t =
  let unc = Array.fold_left (fun acc b -> acc + Frozen.uncompressed_bytes b) 0 t.blocks in
  let comp = Array.fold_left (fun acc b -> acc + Frozen.compressed_bytes b) 0 t.blocks in
  if comp = 0 then 1.0 else float_of_int unc /. float_of_int comp

let iter_leaf_pages t f = walk_leaves ~touch:false t (t.max_frozen + 1) ~stop:max_int f

(* ------------------------------------------------------------------ *)
(* Construction *)

(* The first leaf is a fresh empty page, or on restore the manifest's
   first cold leaf; the inner structure is then regrown by right-edge
   pushes, exactly as the leaves were first created. *)
let create ~name ~schema ~buf ~block_store ?block_id_alloc ?(leaf_capacity = 256) ?manifest () =
  let block_id_alloc =
    match block_id_alloc with
    | Some f -> f
    | None ->
      let n = ref 0 in
      fun () ->
        incr n;
        !n
  in
  let first_swip, first_key, rest =
    match manifest with
    | Some { leaves = (pid, key) :: rest; _ } -> (Bufmgr.cold_swip pid, key, rest)
    | _ ->
      let page = Pax.create schema ~capacity:leaf_capacity in
      let frame = Bufmgr.alloc buf ~partition:(current_partition buf) page in
      let swip = Bufmgr.swip_of frame in
      Bufmgr.set_parent frame swip;
      (swip, 1, [])
  in
  let root = new_inner (Leaf first_swip) first_key in
  let append_latch = Latch.create () in
  Latch.set_class append_latch "table_tree.append_latch";
  let t =
    {
      tname = name;
      tschema = schema;
      buf;
      block_store;
      leaf_capacity;
      append_latch;
      root = Inner root;
      rightmost = first_swip;
      next_rid = 1;
      max_frozen = 0;
      blocks = [||];
      block_ids = [||];
      block_id_alloc;
      live_tuples = 0;
      nleaves = 1;
      fc_swip = first_swip;
      fc_lo = 1;
      fc_hi = 0;
      loc_frame = Bufmgr.vacant ();
      loc_block = 0;
    }
  in
  (match (manifest : manifest option) with
  | None -> ()
  | Some m ->
    List.iter
      (fun (pid, min_rid) ->
        let swip = Bufmgr.cold_swip pid in
        t.nleaves <- t.nleaves + 1;
        t.rightmost <- swip;
        add_rightmost_leaf t min_rid swip)
      rest;
    (* A rightmost-leaf image written back after the checkpoint can hold
       rows at or past the manifest's [next_rid]; replay must find them
       in place, not append them again (DESIGN.md §4b). *)
    let last = Bufmgr.payload (Bufmgr.resolve ~touch:false buf t.rightmost) in
    t.next_rid <- (if Pax.is_empty last then m.next_rid else max m.next_rid (Pax.max_row_id last + 1));
    t.max_frozen <- m.max_frozen;
    t.blocks <-
      Array.of_list
        (List.map (fun bid -> Frozen.decode (Pagestore.read block_store ~page_id:bid)) m.block_ids);
    t.block_ids <- Array.of_list m.block_ids;
    let live = ref 0 in
    Array.iter (fun b -> live := !live + Frozen.live_count b) t.blocks;
    (* count live page-tier tuples *)
    iter_leaf_pages t (fun frame -> live := !live + Pax.live_count (Bufmgr.payload frame));
    t.live_tuples <- !live);
  t
