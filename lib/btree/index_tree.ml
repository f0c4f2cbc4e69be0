module Latch = Phoebe_storage.Latch
module Value = Phoebe_storage.Value
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost

exception Duplicate_key of string

(* Entries are ordered by (key, rid); a leaf stores a sorted slice. *)
type node =
  | Leaf of leaf
  | Inner of inner

and leaf = {
  mutable keys : string array;
  mutable rids : int array;
  mutable ln : int;
  llatch : Latch.t;
}

and inner = {
  mutable sep_keys : string array;  (** separator i = smallest entry of [kids.(i+1)] *)
  mutable sep_rids : int array;
  mutable kids : node array;
  mutable inn : int;  (** number of children *)
  platch : Latch.t;
}

type t = {
  iname : string;
  fanout : int;
  unique : bool;
  mutable root : node;
  mutable entries : int;
  mutable idepth : int;
}

let charge_search () = Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.btree_search_per_level
let charge_leaf_op () = Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.btree_leaf_op

let new_leaf fanout =
  let l = { keys = Array.make fanout ""; rids = Array.make fanout 0; ln = 0; llatch = Latch.create () } in
  Latch.set_class l.llatch "index_tree.llatch";
  l

let create ~name ?(fanout = 64) ~unique () =
  { iname = name; fanout; unique; root = Leaf (new_leaf fanout); entries = 0; idepth = 1 }

let name t = t.iname
let count t = t.entries
let depth t = t.idepth

let cmp_entry k1 r1 k2 r2 =
  let c = String.compare k1 k2 in
  if c <> 0 then c else Int.compare r1 r2

(* First slot in [lo, hi) of the leaf with entry >= (key, rid). The
   bisections are module-level loops rather than [ref] cells so that the
   equal-key walk below is visibly allocation-free to [phoebe_check]. *)
let rec leaf_bound l key rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cmp_entry l.keys.(mid) l.rids.(mid) key rid < 0 then leaf_bound l key rid (mid + 1) hi
    else leaf_bound l key rid lo mid

let leaf_lower_bound l key rid = leaf_bound l key rid 0 l.ln

(* Child index for an entry: the separator of child i+1 is its smallest
   entry, so descend into the rightmost child whose separator is <= the
   probe entry. *)
let rec child_bound inner key rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if cmp_entry inner.sep_keys.(mid - 1) inner.sep_rids.(mid - 1) key rid <= 0 then
      child_bound inner key rid mid hi
    else child_bound inner key rid lo (mid - 1)

let inner_child_index inner key rid = child_bound inner key rid 0 (inner.inn - 1)

let split_leaf t l =
  let half = l.ln / 2 in
  let right = new_leaf t.fanout in
  Array.blit l.keys half right.keys 0 (l.ln - half);
  Array.blit l.rids half right.rids 0 (l.ln - half);
  right.ln <- l.ln - half;
  l.ln <- half;
  (right.keys.(0), right.rids.(0), Leaf right)

let split_inner t inner =
  let half = inner.inn / 2 in
  let right =
    {
      sep_keys = Array.make t.fanout "";
      sep_rids = Array.make t.fanout 0;
      kids = Array.make t.fanout inner.kids.(0);
      inn = inner.inn - half;
      platch = Latch.create ();
    }
  in
  Latch.set_class right.platch "index_tree.platch";
  Array.blit inner.kids half right.kids 0 right.inn;
  Array.blit inner.sep_keys half right.sep_keys 0 (right.inn - 1);
  Array.blit inner.sep_rids half right.sep_rids 0 (right.inn - 1);
  let sk = inner.sep_keys.(half - 1) and sr = inner.sep_rids.(half - 1) in
  inner.inn <- half;
  (sk, sr, Inner right)

let node_full t = function
  | Leaf l -> l.ln >= t.fanout
  | Inner i -> i.inn >= t.fanout

let split_child t parent idx =
  Latch.with_exclusive parent.platch (fun () ->
      (* re-check under the latch: while acquiring it, a concurrent fiber
         may have split this child — or split [parent] itself, halving it
         and invalidating [idx] *)
      if idx < parent.inn then begin
      let child = parent.kids.(idx) in
      if node_full t child && parent.inn < t.fanout then begin
        let sk, sr, right =
          match child with Leaf l -> split_leaf t l | Inner i -> split_inner t i
        in
        Array.blit parent.kids (idx + 1) parent.kids (idx + 2) (parent.inn - idx - 1);
        Array.blit parent.sep_keys idx parent.sep_keys (idx + 1) (parent.inn - 1 - idx);
        Array.blit parent.sep_rids idx parent.sep_rids (idx + 1) (parent.inn - 1 - idx);
        parent.kids.(idx + 1) <- right;
        parent.sep_keys.(idx) <- sk;
        parent.sep_rids.(idx) <- sr;
        parent.inn <- parent.inn + 1
      end
      end)

exception Restart

let insert t ~key ~rid =
  let rec attempt () =
    (* Preemptive splits: if the root is full, grow the tree first. *)
    if node_full t t.root then begin
      let old = t.root in
      let fresh =
        {
          sep_keys = Array.make t.fanout "";
          sep_rids = Array.make t.fanout 0;
          kids = Array.make t.fanout old;
          inn = 1;
          platch = Latch.create ();
        }
      in
      Latch.set_class fresh.platch "index_tree.platch";
      t.root <- Inner fresh;
      t.idepth <- t.idepth + 1;
      split_child t fresh 0
    end;
    let rec go node =
      charge_search ();
      match node with
      | Leaf l ->
        Latch.with_exclusive l.llatch (fun () ->
            charge_leaf_op ();
            (* fullness can change between the descent's check and latch
               acquisition (fibers interleave at charges): restart *)
            if l.ln >= t.fanout then false
            else begin
              if t.unique then begin
                let pos = leaf_lower_bound l key min_int in
                if pos < l.ln && l.keys.(pos) = key then raise (Duplicate_key key)
              end;
              let pos = leaf_lower_bound l key rid in
              Array.blit l.keys pos l.keys (pos + 1) (l.ln - pos);
              Array.blit l.rids pos l.rids (pos + 1) (l.ln - pos);
              l.keys.(pos) <- key;
              l.rids.(pos) <- rid;
              l.ln <- l.ln + 1;
              t.entries <- t.entries + 1;
              true
            end)
      | Inner inner ->
        let idx = Latch.optimistic_read inner.platch (fun () -> inner_child_index inner key rid) in
        if idx < inner.inn && node_full t inner.kids.(idx) then begin
          split_child t inner idx;
          (* splits (ours or a concurrent one observed during the latch
             spin) can move our key range to a sibling unreachable from
             here: restart the descent from the root *)
          raise_notrace Restart
        end
        else go inner.kids.(idx)
    in
    match go t.root with
    | inserted -> if not inserted then attempt ()
    | exception Restart -> attempt ()
  in
  attempt ()

let rec find_leaf node key rid =
  charge_search ();
  match node with
  | Leaf l -> l
  | Inner inner ->
    let idx = Latch.optimistic_read inner.platch (fun () -> inner_child_index inner key rid) in
    find_leaf inner.kids.(idx) key rid

(* Leaves are not chained; [prefix]'s streaming walk goes through the tree. *)
let rec iter_from node key rid f =
  match node with
  | Leaf l ->
    let start = leaf_lower_bound l key rid in
    let continue = ref true in
    let i = ref start in
    while !continue && !i < l.ln do
      continue := f l.keys.(!i) l.rids.(!i);
      incr i
    done;
    !continue
  | Inner inner ->
    let start = inner_child_index inner key rid in
    let continue = ref true in
    let i = ref start in
    while !continue && !i < inner.inn do
      continue := iter_from inner.kids.(!i) key rid f;
      incr i
    done;
    !continue

let delete t ~key ~rid =
  let l = find_leaf t.root key rid in
  Latch.with_exclusive l.llatch (fun () ->
      charge_leaf_op ();
      let pos = leaf_lower_bound l key rid in
      if pos < l.ln && l.keys.(pos) = key && l.rids.(pos) = rid then begin
        Array.blit l.keys (pos + 1) l.keys pos (l.ln - pos - 1);
        Array.blit l.rids (pos + 1) l.rids pos (l.ln - pos - 1);
        l.ln <- l.ln - 1;
        t.entries <- t.entries - 1;
        true
      end
      else false)

(* The equal-key walk: store the rids of [key]'s entries in [dst], in
   ascending order, and return how many there are. Module-level loops
   with every variable passed explicitly, so no closure or cell is
   built. A walk's count is [lnot n] once it has met a greater key, which
   stops the walk over the remaining children. *)
let rec collect_leaf l key dst i n =
  if i >= l.ln then n
  else if String.equal l.keys.(i) key then begin
    if n < Array.length dst then dst.(n) <- l.rids.(i);
    collect_leaf l key dst (i + 1) (n + 1)
  end
  else lnot n

let rec collect_from node key dst n =
  match node with
  | Leaf l -> collect_leaf l key dst (leaf_lower_bound l key min_int) n
  | Inner inner -> collect_kids inner key dst (inner_child_index inner key min_int) n

and collect_kids inner key dst i n =
  if n < 0 || i >= inner.inn then n
  else collect_kids inner key dst (i + 1) (collect_from inner.kids.(i) key dst n)

(* lint: hot-path *)
let collect_key t ~key dst =
  let n = collect_from t.root key dst 0 in
  if n < 0 then lnot n else n

(* [lookup_first]'s one-entry destination; the walk makes no charge, so
   no fiber can interleave while it holds a rid *)
let first_scratch = [| 0 |]

let lookup_first t ~key = if collect_key t ~key first_scratch = 0 then None else Some first_scratch.(0)

(* [String.sub]-free, closure-free prefix test: [prefix] runs once per
   visited entry on the scan path, so carving a fresh substring (or
   building a loop closure) per key would allocate all through
   stock-level and by-name scans. *)
let rec same_from k p i =
  i >= String.length p || (Char.equal (String.unsafe_get k i) (String.unsafe_get p i) && same_from k p (i + 1))

let has_prefix k p = String.length k >= String.length p && same_from k p 0

let prefix t ~prefix:p f =
  ignore
    (iter_from t.root p min_int (fun k rid ->
         if has_prefix k p then f k rid else String.compare k p < 0))

(* Module-level key scratch: encoding makes no charge, so a fiber
   finishes an encode before any other can start one (the same argument
   as [Record.encode]'s body scratch). *)
let key_scratch = Buffer.create 64

let rec add_key_values buf = function
  | [] -> ()
  | v :: rest ->
    Value.encode_key buf v;
    add_key_values buf rest

let encode_key values =
  Buffer.clear key_scratch;
  add_key_values key_scratch values;
  (* lint: allow hot-path-alloc — the probe key string, one per statement, not per row *)
  Buffer.contents key_scratch
