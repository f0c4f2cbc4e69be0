module Latch = Phoebe_storage.Latch
module Keybuf = Phoebe_storage.Keybuf
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost

exception Duplicate_key of string

(* One node of either kind (DESIGN.md, "Index nodes"). Its keys are
   ordered by (key, rid): a leaf's are its entries, an inner node's the
   separators between its children, separator i being the smallest entry
   of child i+1. Every key starts with [prefix]; the rest of key i, its
   suffix, is [suf] from [off i] to [off (i+1)], the suffixes packed back
   to back in key order behind [n + 1] 16-bit offsets in [offs]. [rids]
   and [offs] are sized to the keys and grow by doubling up to the
   fanout. An inner node's [kids] keeps the fanout's length: a descent
   can read a child slot past the live count after a concurrent split
   (its optimistic read validates a version the split does not bump),
   and the slot still holds the child it held before. *)
type node = {
  mutable prefix : string;
  mutable suf : Bytes.t;
  mutable offs : Bytes.t;
  mutable rids : int array;
  mutable n : int;  (** keys: a leaf's entries, an inner node's separators *)
  kids : node array;  (** [[||]] in a leaf; an inner node's [n + 1] children *)
  latch : Latch.t;
}

type t = {
  iname : string;
  fanout : int;
  unique : bool;
  max_key : int;  (** the longest key: a full node's suffixes fit 16-bit offsets *)
  mutable root : node;
  mutable entries : int;
  mutable idepth : int;
}

let charge_search () = Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.btree_search_per_level
let charge_leaf_op () = Scheduler.charge Component.Effective (Scheduler.current_cost ()).Cost.btree_leaf_op

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let[@inline] off nd i = get16u nd.offs (2 * i)
let[@inline] set_off offs i v = set16u offs (2 * i) v
let[@inline] is_leaf nd = Array.length nd.kids = 0

(* An empty node's offsets: the one offset, 0. Never written, since a
   node grows its arrays before its first key. *)
let no_offs = Bytes.make 2 '\000'

let new_node kids =
  let nd = { prefix = ""; suf = Bytes.empty; offs = no_offs; rids = [||]; n = 0; kids; latch = Latch.create () } in
  Latch.set_class nd.latch "index_tree.latch";
  nd

let create ~name ?(fanout = 64) ~unique () =
  if fanout < 4 then invalid_arg "Index_tree.create: fanout below 4";
  { iname = name; fanout; unique; max_key = 0xFFFF / fanout; root = new_node [||]; entries = 0; idepth = 1 }

let name t = t.iname
let count t = t.entries
let depth t = t.idepth

(* The one key comparison: [a] from [ao] for [an] bytes against [b] from
   [bo] for [bn] bytes, ordered exactly as [String.compare] orders the
   two as strings (-1, 0 or 1). Both are read eight bytes at a time up
   to the shorter length [m]: the first pair of words that differs
   decides, read big-endian with the sign bit flipped so that signed
   order is byte order. The last, partial word is read as the word
   ending at [m], whose bytes before [i] are already known equal; keys
   shorter than a word go byte by byte. When the first [m] bytes agree,
   the shorter key sorts first. The loads are unchecked because every
   range lies inside its bytes: a key buffer's length does by
   construction ({!Keybuf}), a string's is its own, and a node's offsets
   stay inside its suffix bytes. A string enters as
   [Bytes.unsafe_of_string], which nothing here writes. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] by_length (an : int) (bn : int) = if an < bn then -1 else if an > bn then 1 else 0

let rec cmp_bytes a ao an b bo bn m i =
  if i >= m then by_length an bn
  else
    let x = Char.code (Bytes.unsafe_get a (ao + i)) and y = Char.code (Bytes.unsafe_get b (bo + i)) in
    if x < y then -1 else if x > y then 1 else cmp_bytes a ao an b bo bn m (i + 1)

let rec cmp_words a ao an b bo bn m i =
  if i + 8 <= m then begin
    let x = get64u a (ao + i) and y = get64u b (bo + i) in
    if x = y then cmp_words a ao an b bo bn m (i + 8)
    else
      let x = Int64.logxor (if Sys.big_endian then x else bswap64 x) Int64.min_int
      and y = Int64.logxor (if Sys.big_endian then y else bswap64 y) Int64.min_int in
      if x < y then -1 else 1
  end
  else if i >= m then by_length an bn
  else if m < 8 then cmp_bytes a ao an b bo bn m i
  else begin
    let x = get64u a (ao + m - 8) and y = get64u b (bo + m - 8) in
    if x = y then by_length an bn
    else
      let x = Int64.logxor (if Sys.big_endian then x else bswap64 x) Int64.min_int
      and y = Int64.logxor (if Sys.big_endian then y else bswap64 y) Int64.min_int in
      if x < y then -1 else 1
  end

let[@inline] cmp_range a ao an b bo bn = cmp_words a ao an b bo bn (if an < bn then an else bn) 0

let compare_key k p = cmp_range (Bytes.unsafe_of_string k) 0 (String.length k) (Keybuf.bytes p) 0 (Keybuf.length p)

(* Where the probe [p] of [pn] bytes falls against [nd]'s prefix: -1
   when it sorts before every key of the node, 1 after every key, and 0
   when it starts with the prefix, so that the suffixes decide. One
   comparison per node, whatever its keys. *)
let side nd p pn =
  let m = String.length nd.prefix in
  let c = if m < pn then m else pn in
  match cmp_words (Bytes.unsafe_of_string nd.prefix) 0 c p 0 c c 0 with
  | 0 -> if pn < m then -1 else 0
  | d -> -d

(* Key [i]'s suffix against the probe's, [p] from [pm] to [pn], for a
   probe that carries the node's prefix of [pm] bytes; then the entry
   (key [i], its rid) against the probe entry. *)
let[@inline] cmp_suffix nd i p pm pn =
  let o = off nd i in
  cmp_range nd.suf o (off nd (i + 1) - o) p pm (pn - pm)

let[@inline] cmp_entry nd i p pm pn rid =
  let c = cmp_suffix nd i p pm pn in
  if c <> 0 then c else Int.compare nd.rids.(i) rid

(* Key [i] of [nd] against the probe, as [String.compare] orders them. *)
let cmp_at nd i p pn = match side nd p pn with 0 -> cmp_suffix nd i p (String.length nd.prefix) pn | s -> -s

(* Key [i] of [nd] starts with the probe's [pn] bytes: a comparison cut
   at [pn], with no key rebuilt. *)
let has_prefix_at nd i p pn =
  let m = String.length nd.prefix in
  if pn <= m then cmp_words (Bytes.unsafe_of_string nd.prefix) 0 pn p 0 pn pn 0 = 0
  else
    let o = off nd i and r = pn - m in
    cmp_words (Bytes.unsafe_of_string nd.prefix) 0 m p 0 m m 0 = 0
    && off nd (i + 1) - o >= r
    && cmp_words nd.suf o r p m r r 0 = 0

(* First slot in [lo, hi) of [nd] with entry >= (probe, rid), over the
   suffixes read in place: the probe carries the node's prefix of [pm]
   bytes, and its own suffix is [p] from [pm] to [pn]. The bisections are
   module-level loops rather than [ref] cells, so the walks below are
   visibly allocation-free to [phoebe_check]. *)
let rec leaf_bound nd p pm pn rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cmp_entry nd mid p pm pn rid < 0 then leaf_bound nd p pm pn rid (mid + 1) hi else leaf_bound nd p pm pn rid lo mid

let lower_bound nd p pn rid =
  match side nd p pn with
  | 0 -> leaf_bound nd p (String.length nd.prefix) pn rid 0 nd.n
  | s -> if s < 0 then 0 else nd.n

(* Child index for an entry: the separator of child i+1 is its smallest
   entry, so descend into the rightmost child whose separator is <= the
   probe entry. *)
let rec child_bound nd p pm pn rid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if cmp_entry nd (mid - 1) p pm pn rid <= 0 then child_bound nd p pm pn rid mid hi else child_bound nd p pm pn rid lo (mid - 1)

let child_index nd p pn rid =
  match side nd p pn with
  | 0 -> child_bound nd p (String.length nd.prefix) pn rid 0 nd.n
  | s -> if s < 0 then 0 else nd.n

(* Key [i] of [nd] rebuilt into [kb]: the node's prefix, then its suffix. *)
let key_into kb nd i =
  let o = off nd i in
  Keybuf.set_concat kb nd.prefix nd.suf o (off nd (i + 1) - o)

(* ------------------------------------------------------------------ *)
(* Node layout changes *)

(* Room for one more key: [rids] and [offs] double, up to the fanout. *)
let grow_keys t nd =
  let cap = min t.fanout (max 2 (2 * Array.length nd.rids)) in
  let rids = Array.make cap 0 and offs = Bytes.create (2 * (cap + 1)) in
  Array.blit nd.rids 0 rids 0 nd.n;
  Bytes.blit nd.offs 0 offs 0 (2 * (nd.n + 1));
  nd.rids <- rids;
  nd.offs <- offs

(* Room for [need] more suffix bytes: the bytes double, or grow to fit. *)
let grow_suffixes nd need =
  let used = off nd nd.n in
  if used + need > Bytes.length nd.suf then begin
    let suf = Bytes.create (max (used + need) (2 * Bytes.length nd.suf)) in
    Bytes.blit nd.suf 0 suf 0 used;
    nd.suf <- suf
  end

(* How many leading bytes two byte ranges share. *)
let rec common a ao b bo m i =
  if i < m && Char.equal (Bytes.unsafe_get a (ao + i)) (Bytes.unsafe_get b (bo + i)) then
    common a ao b bo m (i + 1)
  else i

(* The repack: [nd]'s prefix cut to its first [m'] bytes, each suffix
   lengthened by the bytes cut, into suffix bytes sized to the keys plus
   [spare]. *)
let shorten_prefix nd m' spare =
  let m = String.length nd.prefix in
  let d = m - m' and used = off nd nd.n in
  let suf = Bytes.create (used + (nd.n * d) + spare) in
  for i = 0 to nd.n - 1 do
    let o = off nd i in
    let o' = o + (i * d) in
    Bytes.blit_string nd.prefix m' suf o' d;
    Bytes.blit nd.suf o suf (o' + d) (off nd (i + 1) - o)
  done;
  for i = 1 to nd.n do
    set_off nd.offs i (off nd i + (i * d))
  done;
  nd.prefix <- String.sub nd.prefix 0 m';
  nd.suf <- suf

(* Insert the key [k] of [kn] bytes with [rid] at slot [pos]. A key that
   does not carry the prefix is a new first or last key: the prefix
   shortens to what it shares with the key, and the node is repacked. An
   empty node takes the key as its prefix. *)
let add_at t nd pos k kn rid =
  if nd.n >= Array.length nd.rids then grow_keys t nd;
  let m = String.length nd.prefix in
  if nd.n = 0 then nd.prefix <- Bytes.sub_string k 0 kn
  else if (pos = 0 || pos = nd.n) && side nd k kn <> 0 then begin
    let m' = common (Bytes.unsafe_of_string nd.prefix) 0 k 0 (min m kn) 0 in
    shorten_prefix nd m' (kn - m')
  end;
  let m = String.length nd.prefix in
  let s = kn - m in
  grow_suffixes nd s;
  let used = off nd nd.n and o = off nd pos in
  Bytes.blit nd.suf o nd.suf (o + s) (used - o);
  Bytes.blit k m nd.suf o s;
  for i = nd.n downto pos + 1 do
    set_off nd.offs (i + 1) (off nd i + s)
  done;
  set_off nd.offs (pos + 1) (o + s);
  Array.blit nd.rids pos nd.rids (pos + 1) (nd.n - pos);
  nd.rids.(pos) <- rid;
  nd.n <- nd.n + 1

(* Remove the key at slot [pos]; the prefix stays, since every remaining
   key still carries it. *)
let remove_at nd pos =
  let o = off nd pos and e = off nd (pos + 1) in
  let s = e - o and used = off nd nd.n in
  Bytes.blit nd.suf e nd.suf o (used - e);
  for i = pos + 1 to nd.n - 1 do
    set_off nd.offs i (off nd (i + 1) - s)
  done;
  Array.blit nd.rids (pos + 1) nd.rids pos (nd.n - pos - 1);
  nd.n <- nd.n - 1

(* [src]'s keys [lo, hi) into [dst] (which may be [src]), in arrays of
   their own size behind the longest prefix of the first and last. *)
let repack_range dst src lo hi =
  let k = hi - lo and m = String.length src.prefix in
  let olo = off src lo in
  let extra =
    if k = 0 then 0
    else
      let ohi = off src (hi - 1) in
      common src.suf olo src.suf ohi (min (off src (lo + 1) - olo) (off src hi - ohi)) 0
  in
  let prefix = Bytes.create (m + extra) in
  Bytes.blit_string src.prefix 0 prefix 0 m;
  Bytes.blit src.suf olo prefix m extra;
  let suf = Bytes.create (off src hi - olo - (k * extra)) and offs = Bytes.create (2 * (k + 1)) in
  set_off offs 0 0;
  for i = 0 to k - 1 do
    let o = off src (lo + i) + extra in
    let len = off src (lo + i + 1) - o and o' = off src (lo + i) - olo - (i * extra) in
    Bytes.blit src.suf o suf o' len;
    set_off offs (i + 1) (o' + len)
  done;
  let rids = Array.sub src.rids lo k in
  dst.prefix <- Bytes.unsafe_to_string prefix;
  dst.suf <- suf;
  dst.offs <- offs;
  dst.rids <- rids;
  dst.n <- k

(* The separator a split pushes up, rebuilt here: splits make no charge,
   so no other fiber runs between the split that writes it and the
   parent insert that reads it. *)
let sep_key = Keybuf.create ()

(* Split a full leaf in half; returns the right half, its first entry in
   [sep_key] and the returned rid. *)
let split_leaf left =
  let half = left.n / 2 in
  let right = new_node [||] in
  key_into sep_key left half;
  let sr = left.rids.(half) in
  repack_range right left half left.n;
  repack_range left left 0 half;
  (right, sr)

let split_inner t left =
  let half = (left.n + 1) / 2 in
  let right = new_node (Array.make t.fanout left.kids.(0)) in
  Array.blit left.kids half right.kids 0 (left.n + 1 - half);
  key_into sep_key left (half - 1);
  let sr = left.rids.(half - 1) in
  repack_range right left half left.n;
  repack_range left left 0 (half - 1);
  (right, sr)

let node_full t nd = if is_leaf nd then nd.n >= t.fanout else nd.n + 1 >= t.fanout

let split_child t parent idx =
  Latch.with_exclusive parent.latch (fun () ->
      (* re-check under the latch: while acquiring it, a concurrent fiber
         may have split this child — or split [parent] itself, halving it
         and invalidating [idx] *)
      if idx <= parent.n then begin
        let child = parent.kids.(idx) in
        if node_full t child && parent.n + 1 < t.fanout then begin
          let right, sr = if is_leaf child then split_leaf child else split_inner t child in
          Array.blit parent.kids (idx + 1) parent.kids (idx + 2) (parent.n - idx);
          parent.kids.(idx + 1) <- right;
          add_at t parent idx (Keybuf.bytes sep_key) (Keybuf.length sep_key) sr
        end
      end)

(* ------------------------------------------------------------------ *)
(* Insert and delete *)

exception Restart

(* An insert's or delete's entry, read at every level of its descent. *)
type entry = { ek : Bytes.t; en : int; erid : int }

let child_of nd e = child_index nd e.ek e.en e.erid

let key_too_long = Invalid_argument "Index_tree: key longer than the tree's limit"

(* The leaf step of an insert, under the leaf's exclusive latch: false
   when the leaf filled up since the descent checked it. *)
let insert_in_leaf t nd e =
  charge_leaf_op ();
  (* fullness can change between the descent's check and latch
     acquisition (fibers interleave at charges): restart *)
  if nd.n >= t.fanout then false
  else begin
    if t.unique then begin
      let pos = lower_bound nd e.ek e.en min_int in
      if pos < nd.n && cmp_at nd pos e.ek e.en = 0 then
        (* lint: allow hot-path-alloc — a duplicate key: the error path *)
        raise (Duplicate_key (Bytes.sub_string e.ek 0 e.en))
    end;
    add_at t nd (lower_bound nd e.ek e.en e.erid) e.ek e.en e.erid;
    t.entries <- t.entries + 1;
    true
  end

let rec descend_insert t nd e =
  charge_search ();
  if is_leaf nd then begin
    Latch.acquire_exclusive nd.latch;
    match insert_in_leaf t nd e with
    | inserted ->
      Latch.release_exclusive nd.latch;
      inserted
    | exception ex ->
      Latch.release_exclusive nd.latch;
      raise ex
  end
  else
    let idx = Latch.optimistic_read_with nd.latch child_of nd e in
    if idx <= nd.n && node_full t nd.kids.(idx) then begin
      split_child t nd idx;
      (* splits (ours or a concurrent one observed during the latch
         spin) can move our key range to a sibling unreachable from
         here: restart the descent from the root *)
      raise_notrace Restart
    end
    else descend_insert t nd.kids.(idx) e

let rec insert_entry t e =
  (* Preemptive splits: if the root is full, grow the tree first. *)
  if node_full t t.root then begin
    let old = t.root in
    let fresh = new_node (Array.make t.fanout old) in
    t.root <- fresh;
    t.idepth <- t.idepth + 1;
    split_child t fresh 0
  end;
  match descend_insert t t.root e with
  | inserted -> if not inserted then insert_entry t e
  | exception Restart -> insert_entry t e

(* The entry of the key made of [len] bytes of [key]: the string form
   reads a string's bytes, the key form a key buffer's, both unchecked
   since [len] lies inside them. *)
let insert_entry_of t key len rid =
  if len > t.max_key then raise key_too_long;
  insert_entry t { ek = key; en = len; erid = rid }

let insert t ~key ~rid = insert_entry_of t (Bytes.unsafe_of_string key) (String.length key) rid
let insert_key t k ~rid = insert_entry_of t (Keybuf.bytes k) (Keybuf.length k) rid

let rec find_leaf nd e =
  charge_search ();
  if is_leaf nd then nd else find_leaf nd.kids.(Latch.optimistic_read_with nd.latch child_of nd e) e

let delete_in_leaf t nd e =
  charge_leaf_op ();
  let pos = lower_bound nd e.ek e.en e.erid in
  if pos < nd.n && cmp_at nd pos e.ek e.en = 0 && nd.rids.(pos) = e.erid then begin
    remove_at nd pos;
    t.entries <- t.entries - 1;
    true
  end
  else false

let delete_entry_of t key len rid =
  let e = { ek = key; en = len; erid = rid } in
  let nd = find_leaf t.root e in
  Latch.acquire_exclusive nd.latch;
  match delete_in_leaf t nd e with
  | deleted ->
    Latch.release_exclusive nd.latch;
    deleted
  | exception ex ->
    Latch.release_exclusive nd.latch;
    raise ex

let delete t ~key ~rid = delete_entry_of t (Bytes.unsafe_of_string key) (String.length key) rid
let delete_key t k ~rid = delete_entry_of t (Keybuf.bytes k) (Keybuf.length k) rid

(* ------------------------------------------------------------------ *)
(* Walks *)

(* The equal-key walk: store the rids of the probe's entries in [dst],
   in ascending order, and return how many there are. Module-level loops
   with every variable passed explicitly, so no closure or cell is
   built. A walk's count is [lnot n] once it has met a greater key, which
   stops the walk over the remaining children. In a leaf the probe
   carries the prefix of [pm] bytes, so only suffixes are compared. *)
let rec collect_leaf nd p pm pn dst i n =
  if i >= nd.n then n
  else if cmp_suffix nd i p pm pn = 0 then begin
      if n < Array.length dst then dst.(n) <- nd.rids.(i);
    collect_leaf nd p pm pn dst (i + 1) (n + 1)
  end
  else lnot n

let rec collect_from nd p pn dst n =
  if is_leaf nd then
    match side nd p pn with
    | 0 ->
      let pm = String.length nd.prefix in
      collect_leaf nd p pm pn dst (leaf_bound nd p pm pn min_int 0 nd.n) n
    | s -> if s > 0 || nd.n = 0 then n else lnot n
  else collect_kids nd p pn dst (child_index nd p pn min_int) n

and collect_kids nd p pn dst i n =
  if n < 0 || i > nd.n then n else collect_kids nd p pn dst (i + 1) (collect_from nd.kids.(i) p pn dst n)

let collect t p pn dst =
  let n = collect_from t.root p pn dst 0 in
  if n < 0 then lnot n else n

(* lint: hot-path *)
let collect_key t ~key dst = collect t (Keybuf.bytes key) (Keybuf.length key) dst

(* [lookup_first]'s one-entry destination; the walk makes no charge, so
   no fiber can interleave while it holds a rid *)
let first_scratch = [| 0 |]

let lookup_first t ~key =
  if collect t (Bytes.unsafe_of_string key) (String.length key) first_scratch = 0 then None
  else Some first_scratch.(0)

(* The one streaming walk, in key order from the first entry >= the
   prefix: module-level recursion with the prefix, the key buffer and
   the visitor passed down, so a scan builds no closure. An entry that
   has the prefix is rebuilt into [kb] and visited; one that sorts before
   it (only at the start) is passed over; the first that sorts after it
   ends the walk, as does a visitor that returns [false]. The walk goes
   by position and reads the node again after every visit, since the
   visitor can suspend the fiber while other fibers change the node.
   Leaves are not chained, so the walk goes through the tree. *)
let rec prefix_leaf nd p pn kb f i =
  i >= nd.n
  ||
  if has_prefix_at nd i p pn then begin
    key_into kb nd i;
    f kb nd.rids.(i) && prefix_leaf nd p pn kb f (i + 1)
  end
  else cmp_at nd i p pn < 0 && prefix_leaf nd p pn kb f (i + 1)

let rec prefix_node nd p pn kb f =
  if is_leaf nd then prefix_leaf nd p pn kb f (lower_bound nd p pn min_int)
  else prefix_kids nd p pn kb f (child_index nd p pn min_int)

and prefix_kids nd p pn kb f i = i > nd.n || (prefix_node nd.kids.(i) p pn kb f && prefix_kids nd p pn kb f (i + 1))

(* lint: hot-path *)
let prefix t ~prefix kb f = ignore (prefix_node t.root (Keybuf.bytes prefix) (Keybuf.length prefix) kb f)

(* ------------------------------------------------------------------ *)
(* Structural check *)

type rule =
  | Key_order
  | Child_range
  | Prefix
  | Count
  | Depth

type finding = { rule : rule; detail : string }

let rule_name = function
  | Key_order -> "key_order"
  | Child_range -> "child_range"
  | Prefix -> "prefix"
  | Count -> "count"
  | Depth -> "depth"

(* The packed layout decodes: offsets start at 0, never decrease and end
   inside the suffix bytes, and the keys fit their arrays. *)
let layout_ok nd =
  let rec offs_ok i = i >= nd.n || (off nd i <= off nd (i + 1) && offs_ok (i + 1)) in
  nd.n >= 0
  && nd.n <= Array.length nd.rids
  && Bytes.length nd.offs >= 2 * (nd.n + 1)
  && off nd 0 = 0 && offs_ok 0
  && off nd nd.n <= Bytes.length nd.suf

let key_string nd i = nd.prefix ^ Bytes.sub_string nd.suf (off nd i) (off nd (i + 1) - off nd i)

let cmp_entry (k1, r1) (k2, r2) =
  let c = String.compare k1 k2 in
  if c <> 0 then c else Int.compare r1 r2

let verify t =
  let found = ref [] in
  let add rule fmt = Printf.ksprintf (fun detail -> found := { rule; detail } :: !found) fmt in
  let leaves = ref 0 in
  let show (k, r) = Printf.sprintf "(%S, %d)" k r in
  (* [lo] is the node's least allowed entry, [hi] the entry it must stay
     below (the parent's separators), [None] at the tree's edges *)
  let rec walk nd path level lo hi =
    if not (layout_ok nd) then add Prefix "%s %s: its offsets do not decode %d keys" t.iname path nd.n
    else begin
      let keys = Array.init nd.n (fun i -> (key_string nd i, nd.rids.(i))) in
      Array.iteri
        (fun i e ->
          if i > 0 && cmp_entry keys.(i - 1) e >= 0 then
            add Key_order "%s %s: key %d %s does not follow %s" t.iname path i (show e) (show keys.(i - 1));
          (match lo with
          | Some l when cmp_entry e l < 0 ->
            add Child_range "%s %s: key %d %s below its bound %s" t.iname path i (show e) (show l)
          | _ -> ());
          match hi with
          | Some h when cmp_entry e h >= 0 ->
            add Child_range "%s %s: key %d %s not below its bound %s" t.iname path i (show e) (show h)
          | _ -> ())
        keys;
      if is_leaf nd then begin
        leaves := !leaves + nd.n;
        if level <> t.idepth then add Depth "%s %s: a leaf at depth %d of %d" t.iname path level t.idepth
      end
      else
        for i = 0 to nd.n do
          let lo = if i = 0 then lo else Some keys.(i - 1) and hi = if i = nd.n then hi else Some keys.(i) in
          walk nd.kids.(i) (Printf.sprintf "%s.%d" path i) (level + 1) lo hi
        done
    end
  in
  walk t.root "root" 1 None None;
  if !leaves <> t.entries then add Count "%s: %d entries counted, %d in the leaves" t.iname t.entries !leaves;
  List.rev !found

(* ------------------------------------------------------------------ *)
(* Key encoding *)

(* The module-level encode buffer: encoding makes no charge, so a fiber
   finishes an encode before any other can start one (the same argument
   as [Record.encode]'s body scratch). *)
let encoded = Keybuf.create ()

let rec add_values k = function
  | [] -> ()
  | v :: rest ->
    Keybuf.add k v;
    add_values k rest

let encode_key values =
  Keybuf.clear encoded;
  add_values encoded values;
  Keybuf.to_string encoded
