module Value = Phoebe_storage.Value

type kind = Created | Updated of (int * Value.t) array | Deleted of Value.t array

type t = {
  mutable table_id : int;
  mutable rid : int;
  mutable kind : kind;
  mutable sts : int;
  mutable ets : int;
  mutable slot : int;
  mutable next : t option;
  mutable next_in_txn : t option;
  mutable reclaimed : bool;
}

(* Slab reuse (DESIGN.md §4h): released entries are kept on an intrusive
   freelist threaded through [next]. An entry may only be released once
   nothing can still reach it — chains, bundles, or a reader suspended
   mid-walk at a charge-granule boundary — which Txnmgr guarantees with
   a grace period keyed on the oldest active start timestamp. Every
   header field is re-stamped on reuse ([ets], [next], [next_in_txn],
   [reclaimed] in particular: a stale [ets] would corrupt visibility,
   a stale [reclaimed] would make a live write invisible, and the
   commit-path undo-chain checker flags exactly that). *)
let freelist : t option ref = ref None
let freelist_len = ref 0
let freelist_cap = 4096

(* lint: hot-path *)
let make ~table_id ~rid ~kind ~sts ~xid ~slot ~prev =
  match !freelist with
  | Some u ->
    freelist := u.next;
    decr freelist_len;
    u.table_id <- table_id;
    u.rid <- rid;
    u.kind <- kind;
    u.sts <- sts;
    u.ets <- xid;
    u.slot <- slot;
    u.next <- prev;
    u.next_in_txn <- None;
    u.reclaimed <- false;
    u
  | None ->
    (* lint: allow hot-path-alloc — cold start / freelist empty *)
    {
      table_id;
      rid;
      kind;
      sts;
      ets = xid;
      slot;
      next = prev;
      next_in_txn = None;
      reclaimed = false;
    }

(* lint: hot-path *)
let release u =
  if !freelist_len < freelist_cap then begin
    u.kind <- Created (* drop the before-image payload so the GC can take it *);
    u.next_in_txn <- None;
    u.next <- !freelist;
    freelist := Some u; (* lint: allow hot-path-alloc — one option cell per release; the slab payload is what is reused *)
    incr freelist_len
  end
  else begin
    u.next <- None;
    u.next_in_txn <- None
  end

let freelist_length () = !freelist_len

let is_committed t = not (Clock.is_xid t.ets)

let iter_txn head f =
  let rec go = function
    | None -> ()
    | Some u ->
      f u;
      go u.next_in_txn
  in
  go head

let txn_length head =
  let n = ref 0 in
  iter_txn head (fun _ -> incr n);
  !n

(* module-level loops rather than folds: every write sizes its undo *)
let rec delta_bytes (cols : (int * Value.t) array) i acc =
  if i >= Array.length cols then acc else delta_bytes cols (i + 1) (acc + Value.size_bytes (snd cols.(i)))

let rec row_bytes (row : Value.t array) i acc =
  if i >= Array.length row then acc else row_bytes row (i + 1) (acc + Value.size_bytes row.(i))

let size_bytes t =
  let delta =
    match t.kind with
    | Created -> 0
    | Updated cols -> delta_bytes cols 0 0
    | Deleted row -> row_bytes row 0 0
  in
  64 + delta
