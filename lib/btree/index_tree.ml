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

(* The one key comparison: the first [kn] bytes of the stored key [k]
   against the first [pn] bytes of the probe [p], ordered exactly as
   [String.compare] orders the two as strings (-1, 0 or 1). Every search
   of the tree goes through it; a string probe enters as
   [Bytes.unsafe_of_string], which nothing here writes. Both are read
   eight bytes at a time up to the shorter length [m]: the first pair of
   words that differs decides, read big-endian with the sign bit flipped
   so that signed order is byte order. The last, partial word is read as
   the word ending at [m], whose bytes before [i] are already known
   equal; keys shorter than a word go byte by byte. When the first [m]
   bytes agree, the shorter key sorts first. The loads are unchecked
   because [m] bounds both keys. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] by_length (kn : int) (pn : int) = if kn < pn then -1 else if kn > pn then 1 else 0

let rec cmp_bytes k kn p pn m i =
  if i >= m then by_length kn pn
  else
    let a = Char.code (String.unsafe_get k i) and b = Char.code (Bytes.unsafe_get p i) in
    if a < b then -1 else if a > b then 1 else cmp_bytes k kn p pn m (i + 1)

let rec cmp_words k kn p pn m i =
  if i + 8 <= m then begin
    let a = get64u k i and b = bytes_get64u p i in
    if a = b then cmp_words k kn p pn m (i + 8)
    else
      let a = Int64.logxor (if Sys.big_endian then a else bswap64 a) Int64.min_int
      and b = Int64.logxor (if Sys.big_endian then b else bswap64 b) Int64.min_int in
      if a < b then -1 else 1
  end
  else if i >= m then by_length kn pn
  else if m < 8 then cmp_bytes k kn p pn m i
  else begin
    let a = get64u k (m - 8) and b = bytes_get64u p (m - 8) in
    if a = b then by_length kn pn
    else
      let a = Int64.logxor (if Sys.big_endian then a else bswap64 a) Int64.min_int
      and b = Int64.logxor (if Sys.big_endian then b else bswap64 b) Int64.min_int in
      if a < b then -1 else 1
  end

let[@inline] cmp_upto k kn p pn = cmp_words k kn p pn (if kn < pn then kn else pn) 0

(* A probe's length must lie inside its bytes: the comparison reads
   them unchecked. Built once, so the check allocates nothing. *)
let past_bytes = Invalid_argument "Index_tree: probe length past its bytes"

let check_len key len = if len < 0 || len > Bytes.length key then raise past_bytes

let[@inline] cmp_key k p pn = cmp_upto k (String.length k) p pn

let compare_key k p pn =
  check_len p pn;
  cmp_key k p pn

(* [k] starts with the probe's [pn] bytes: a comparison of [k] cut at
   [pn], with no substring carved. *)
let has_prefix k p pn = String.length k >= pn && cmp_upto k pn p pn = 0

let[@inline] cmp_entry k1 r1 p pn r2 =
  let c = cmp_key k1 p pn in
  if c <> 0 then c else Int.compare r1 r2

(* First slot in [lo, hi) of the leaf with entry >= (probe, rid). The
   bisections are module-level loops rather than [ref] cells so that the
   equal-key walk below is visibly allocation-free to [phoebe_check]. *)
let rec leaf_bound l p pn rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cmp_entry l.keys.(mid) l.rids.(mid) p pn rid < 0 then leaf_bound l p pn rid (mid + 1) hi
    else leaf_bound l p pn rid lo mid

let[@inline] leaf_lower_bound l p pn rid = leaf_bound l p pn rid 0 l.ln

(* Child index for an entry: the separator of child i+1 is its smallest
   entry, so descend into the rightmost child whose separator is <= the
   probe entry. *)
let rec child_bound inner p pn rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if cmp_entry inner.sep_keys.(mid - 1) inner.sep_rids.(mid - 1) p pn rid <= 0 then
      child_bound inner p pn rid mid hi
    else child_bound inner p pn rid lo (mid - 1)

let[@inline] inner_child_index inner p pn rid = child_bound inner p pn rid 0 (inner.inn - 1)

(* The same searches for a string key ([insert], [delete]): the key
   enters as [Bytes.unsafe_of_string], the identity, so the closures
   around the latches capture the string alone. *)
let[@inline] str_lower_bound l key rid = leaf_lower_bound l (Bytes.unsafe_of_string key) (String.length key) rid
let[@inline] str_child_index inner key rid = inner_child_index inner (Bytes.unsafe_of_string key) (String.length key) rid
let[@inline] str_equal k key = cmp_key k (Bytes.unsafe_of_string key) (String.length key) = 0

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
                let pos = str_lower_bound l key min_int in
                if pos < l.ln && str_equal l.keys.(pos) key then raise (Duplicate_key key)
              end;
              let pos = str_lower_bound l key rid in
              Array.blit l.keys pos l.keys (pos + 1) (l.ln - pos);
              Array.blit l.rids pos l.rids (pos + 1) (l.ln - pos);
              l.keys.(pos) <- key;
              l.rids.(pos) <- rid;
              l.ln <- l.ln + 1;
              t.entries <- t.entries + 1;
              true
            end)
      | Inner inner ->
        let idx = Latch.optimistic_read inner.platch (fun () -> str_child_index inner key rid) in
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
    let idx = Latch.optimistic_read inner.platch (fun () -> str_child_index inner key rid) in
    find_leaf inner.kids.(idx) key rid

let delete t ~key ~rid =
  let l = find_leaf t.root key rid in
  Latch.with_exclusive l.llatch (fun () ->
      charge_leaf_op ();
      let pos = str_lower_bound l key rid in
      if pos < l.ln && str_equal l.keys.(pos) key && l.rids.(pos) = rid then begin
        Array.blit l.keys (pos + 1) l.keys pos (l.ln - pos - 1);
        Array.blit l.rids (pos + 1) l.rids pos (l.ln - pos - 1);
        l.ln <- l.ln - 1;
        t.entries <- t.entries - 1;
        true
      end
      else false)

(* The equal-key walk: store the rids of the probe's entries in [dst],
   in ascending order, and return how many there are. Module-level loops
   with every variable passed explicitly, so no closure or cell is
   built. A walk's count is [lnot n] once it has met a greater key, which
   stops the walk over the remaining children. *)
let rec collect_leaf l p pn dst i n =
  if i >= l.ln then n
  else if cmp_key l.keys.(i) p pn = 0 then begin
    if n < Array.length dst then dst.(n) <- l.rids.(i);
    collect_leaf l p pn dst (i + 1) (n + 1)
  end
  else lnot n

let rec collect_from node p pn dst n =
  match node with
  | Leaf l -> collect_leaf l p pn dst (leaf_lower_bound l p pn min_int) n
  | Inner inner -> collect_kids inner p pn dst (inner_child_index inner p pn min_int) n

and collect_kids inner p pn dst i n =
  if n < 0 || i >= inner.inn then n
  else collect_kids inner p pn dst (i + 1) (collect_from inner.kids.(i) p pn dst n)

(* lint: hot-path *)
let collect_key t ~key ~len dst =
  check_len key len;
  let n = collect_from t.root key len dst 0 in
  if n < 0 then lnot n else n

(* [lookup_first]'s one-entry destination; the walk makes no charge, so
   no fiber can interleave while it holds a rid *)
let first_scratch = [| 0 |]

let lookup_first t ~key =
  if collect_key t ~key:(Bytes.unsafe_of_string key) ~len:(String.length key) first_scratch = 0 then None
  else Some first_scratch.(0)

(* The one streaming walk, in key order from the first entry >= the
   prefix: module-level recursion with the prefix and the visitor passed
   down, so a scan builds no closure. An entry that has the prefix is
   visited; one that sorts before it (only at the start) is passed over;
   the first that sorts after it ends the walk, as does a visitor that
   returns [false]. Leaves are not chained, so the walk goes through the
   tree. *)
let rec prefix_leaf l p pn f i =
  i >= l.ln
  ||
  let k = l.keys.(i) in
  if has_prefix k p pn then f k l.rids.(i) && prefix_leaf l p pn f (i + 1)
  else cmp_key k p pn < 0 && prefix_leaf l p pn f (i + 1)

let rec prefix_node node p pn f =
  match node with
  | Leaf l -> prefix_leaf l p pn f (leaf_lower_bound l p pn min_int)
  | Inner inner -> prefix_kids inner p pn f (inner_child_index inner p pn min_int)

and prefix_kids inner p pn f i = i >= inner.inn || (prefix_node inner.kids.(i) p pn f && prefix_kids inner p pn f (i + 1))

(* lint: hot-path *)
let prefix t ~prefix ~len f =
  check_len prefix len;
  ignore (prefix_node t.root prefix len f)

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
  Buffer.contents key_scratch
