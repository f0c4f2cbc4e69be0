(* [Hashtbl.hash] on an int runs the generic [caml_hash] and every probe
   compares keys polymorphically; here the hash is the key itself and
   equality is [Int.equal], both inlined. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
