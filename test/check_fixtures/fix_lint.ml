(* Fixture without an .mli, which seeds missing-mli at line 1: one
   seeded site per per-unit rule of phoebe_check. test_check expects
   each rule to fire on exactly the lines marked as seeding it; the
   lines marked as staying clean exercise the exemptions. *)

let roll () = Random.int 6 (* seeds random *)
let elapsed () = Sys.time () (* seeds wall-clock *)
let same x y = x = y (* seeds poly-compare *)
let sort l = List.sort compare l (* seeds poly-compare *)
let same_callback (f : int -> int) g = f = g (* seeds poly-compare *)
let sort_ints (l : int list) = List.sort compare l (* stays clean *)
let unset (cb : (int -> int) option) = cb = None (* stays clean *)
let nonempty (cbs : (unit -> unit) list) = cbs <> [] (* stays clean *)
let idle (s : [ `Done | `Run of unit -> unit ]) = s = `Done (* stays clean *)

module Key = struct
  type t = { k : int }

  let compare a b = Int.compare a.k b.k (* stays clean *)
  let equal a b = compare a b = 0 (* stays clean *)
end

type cache = { entries : (int, int) Hashtbl.t }

let drain tbl = Hashtbl.iter (fun k _ -> Hashtbl.remove tbl k) tbl (* seeds hashtbl-iter-mutate *)

let evict c =
  Hashtbl.iter (fun k v -> if v = 0 then Hashtbl.remove c.entries k) c.entries (* seeds hashtbl-iter-mutate *)

let move src dst = Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src (* stays clean *)

let drain_collected tbl =
  let dead = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.iter (Hashtbl.remove tbl) dead (* stays clean *)

module Int_tbl = Phoebe_util.Int_tbl

type pages = { twins : int Int_tbl.t }

let drain_ints tbl = Int_tbl.iter (fun k _ -> Int_tbl.remove tbl k) tbl (* seeds hashtbl-iter-mutate *)

let sweep p =
  Phoebe_util.Int_tbl.iter (fun k v -> if v = 0 then Phoebe_util.Int_tbl.remove p.twins k) p.twins (* seeds hashtbl-iter-mutate *)

let move_ints src dst = Int_tbl.iter (fun k v -> Int_tbl.replace dst k v) src (* stays clean *)

let sweep_collected p =
  let dead = Int_tbl.fold (fun k v acc -> if v = 0 then k :: acc else acc) p.twins [] in
  List.iter (Int_tbl.remove p.twins) dead (* stays clean *)

(* lint: allow hot-alloc *) (* seeds unknown-pragma *)
let retired () = Buffer.create 16
