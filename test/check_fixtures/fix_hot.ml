(* Fixture: a hot-path-tagged entry point reaching a closure-capturing
   allocation and a [Buffer.to_bytes] copy through helpers —
   phoebe_check must report [hot-path-alloc] with the chain, while an
   untagged entry reaching the same helper stays clean, and so does a
   helper reached only through a call site that carries an allow. *)

let helper base xs = List.map (fun x -> x + base) xs
let scratch = Buffer.create 16
let copy_helper () = Buffer.to_bytes scratch

(* lint: hot-path *)
let hot_entry base xs =
  ignore (copy_helper ());
  helper base xs

(* untagged: same body, no finding *)
let cold_entry base xs = helper base xs

let rare_helper xs = List.rev xs

(* lint: hot-path *)
let hot_with_cold_branch xs =
  match xs with
  | [ _ ] -> xs
  | _ ->
    (* lint: allow hot-path-alloc — fixture: the cut call names its cold branch *)
    rare_helper xs
