(* Reusable flat tuple scratch (DESIGN.md §4h). A pool hands out
   pre-sized [Value.t array] row buffers keyed by scheduler slot, so the
   execute path decodes tuples into caller-owned storage instead of
   allocating a fresh array per read.

   Ownership rule: a row taken from the pool is valid until the same
   slot takes [ring] more rows from the same pool. One fiber occupies a
   slot at a time, so rows survive the taking fiber's own suspensions;
   they must not be retained across statements. Paths that keep a row
   (undo before-images, scan results handed to user callbacks) copy. *)

(* The live-at-once bound on the execute path is three rows (the
   visible row handed to an update closure, plus the old/new images for
   index maintenance); a ring of 4 leaves one spare. *)
let ring = 4

type t = {
  arity : int;
  mutable slots : Value.t array array array;  (** slot -> ring -> row *)
  mutable cursor : int array;  (** per-slot ring cursor *)
  mutable res : Value.t array array;  (** slot -> dedicated result row *)
  mutable rids : int array array;  (** slot -> candidate row ids of a point lookup *)
}

let create ~arity = { arity; slots = [||]; cursor = [||]; res = [||]; rids = [||] }

let grow t slot =
  let n = Array.length t.slots in
  let n' = max (slot + 1) (max 4 (2 * n)) in
  let slots = Array.make n' [||] in (* lint: allow hot-path-alloc — pool growth, off steady state *)
  Array.blit t.slots 0 slots 0 n;
  let cursor = Array.make n' 0 in (* lint: allow hot-path-alloc — pool growth, off steady state *)
  Array.blit t.cursor 0 cursor 0 n;
  let res = Array.make n' [||] in (* lint: allow hot-path-alloc — pool growth, off steady state *)
  Array.blit t.res 0 res 0 n;
  let rids = Array.make n' [||] in (* lint: allow hot-path-alloc — pool growth, off steady state *)
  Array.blit t.rids 0 rids 0 n;
  for i = n to n' - 1 do
    slots.(i) <- Array.init ring (fun _ -> Array.make t.arity Value.Null); (* lint: allow hot-path-alloc — pool growth, off steady state *)
    res.(i) <- Array.make t.arity Value.Null; (* lint: allow hot-path-alloc — pool growth, off steady state *)
    rids.(i) <- Array.make 8 0 (* lint: allow hot-path-alloc — pool growth, off steady state *)
  done;
  t.slots <- slots;
  t.cursor <- cursor;
  t.res <- res;
  t.rids <- rids

(* lint: hot-path *)
let take t ~slot =
  if slot >= Array.length t.slots then grow t slot;
  let c = t.cursor.(slot) in
  t.cursor.(slot) <- (if c + 1 >= ring then 0 else c + 1);
  t.slots.(slot).(c)

(* lint: hot-path *)
let result t ~slot =
  if slot >= Array.length t.slots then grow t slot;
  t.res.(slot)

(* lint: hot-path *)
let rids t ~slot =
  if slot >= Array.length t.slots then grow t slot;
  t.rids.(slot)

let grow_rids t ~slot n =
  if slot >= Array.length t.slots then grow t slot;
  if Array.length t.rids.(slot) < n then
    (* lint: allow hot-path-alloc — pool growth, off steady state *)
    t.rids.(slot) <- Array.make (max n (2 * Array.length t.rids.(slot))) 0

let arity t = t.arity
