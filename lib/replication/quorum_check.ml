(* Raft's safety properties (Ongaro 2014, fig. 3.2) over a plain
   snapshot of a replica group, so fixtures can corrupt one. *)

type entry = { e_view : int; e_start : int; e_len : int }

type node_state = {
  s_id : int;
  s_leads : int option;
  s_chunks : entry array;
  s_durable : int;
  s_safe : int;
  s_applied : int;
}

type release = { r_view : int; r_count : int; r_chunk_view : int; r_end : int }
type snapshot = { members : node_state array; leaders : (int * int) list; releases : release list }
type rule = Election_safety | Log_matching | Leader_completeness | Node_order
type finding = { rule : rule; detail : string }

let rule_name = function
  | Election_safety -> "election-safety"
  | Log_matching -> "log-matching"
  | Leader_completeness -> "leader-completeness"
  | Node_order -> "node-order"

let verify s =
  let out = ref [] in
  let add rule fmt = Printf.ksprintf (fun detail -> out := { rule; detail } :: !out) fmt in
  let by_view (v, a) (v', b) = if v <> v' then Int.compare v v' else Int.compare a b in
  (* Election Safety: at most one primary per view, over every promotion
     and every node now leading *)
  let leads =
    Array.fold_left
      (fun acc m -> match m.s_leads with Some v -> (v, m.s_id) :: acc | None -> acc)
      s.leaders s.members
  in
  let rec pairs = function
    | (v, a) :: ((v', b) :: _ as rest) ->
      if v = v' then add Election_safety "nodes %d and %d both led view %d" a b v;
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs (List.sort_uniq by_view leads);
  (* per node: applied <= safe <= durable <= received, and views never
     decrease along the chunk table *)
  Array.iter
    (fun m ->
      let n = Array.length m.s_chunks in
      if not (m.s_applied <= m.s_safe && m.s_safe <= m.s_durable && m.s_durable <= n) then
        add Node_order "node %d: applied %d, safe %d, durable %d, received %d" m.s_id m.s_applied
          m.s_safe m.s_durable n;
      let i = ref 1 in
      while !i < n && m.s_chunks.(!i).e_view >= m.s_chunks.(!i - 1).e_view do
        incr i
      done;
      if !i < n then
        add Node_order "node %d: chunk %d of view %d follows one of view %d" m.s_id !i
          m.s_chunks.(!i).e_view
          m.s_chunks.(!i - 1).e_view)
    s.members;
  (* Log Matching: if two nodes hold index i in the same view, their
     chunks agree at every index <= i *)
  let same a b = a.e_view = b.e_view && a.e_start = b.e_start && a.e_len = b.e_len in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.s_id < b.s_id then begin
            let n = min (Array.length a.s_chunks) (Array.length b.s_chunks) in
            let d = ref 0 in
            while !d < n && same a.s_chunks.(!d) b.s_chunks.(!d) do
              incr d
            done;
            let i = ref (n - 1) in
            while !i >= !d && a.s_chunks.(!i).e_view <> b.s_chunks.(!i).e_view do
              decr i
            done;
            if !i >= !d then
              add Log_matching
                "nodes %d and %d both hold chunk %d in view %d but differ at chunk %d" a.s_id
                b.s_id !i a.s_chunks.(!i).e_view !d
          end)
        s.members)
    s.members;
  (* Leader Completeness: the highest-view primary holds the chunk at
     which every view up to its own last released a commit wait *)
  let top =
    Array.fold_left
      (fun acc m ->
        match (m.s_leads, acc) with
        | Some v, Some (v', _) when v <= v' -> acc
        | Some v, _ -> Some (v, m)
        | None, _ -> acc)
      None s.members
  in
  Option.iter
    (fun (v, p) ->
      List.iter
        (fun r ->
          let holds k =
            k <= Array.length p.s_chunks
            &&
            let e = p.s_chunks.(k - 1) in
            e.e_view = r.r_chunk_view && e.e_start + e.e_len = r.r_end
          in
          if r.r_view <= v && r.r_count > 0 && not (holds r.r_count) then
            add Leader_completeness
              "primary %d of view %d lacks chunk %d (view %d, ending at byte %d), released in \
               view %d"
              p.s_id v (r.r_count - 1) r.r_chunk_view r.r_end r.r_view)
        s.releases)
    top;
  List.rev !out

let check s =
  match verify s with
  | [] -> ()
  | fs ->
    Phoebe_util.Phoebe_error.bug ~subsystem:"replication.quorum" "invariant broken: %s"
      (String.concat "; " (List.map (fun f -> rule_name f.rule ^ ": " ^ f.detail) fs))
