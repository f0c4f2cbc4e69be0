(** The invariant checker of {!Quorum}: Raft's safety properties
    (Ongaro, {i Consensus: Bridging Theory and Practice}, 2014, fig.
    3.2) over a plain snapshot of a replica group, so a fixture can
    corrupt a snapshot without reaching into the group. {!Quorum.snapshot}
    takes one. Under the sanitizer ({!Phoebe_sanitize.Sanitize.on}) the
    group checks itself after every delivered message and raises
    {!Phoebe_util.Phoebe_error.Bug} on a finding. *)

type entry = { e_view : int; e_start : int; e_len : int }
(** One chunk: the view whose primary cut it, its stream offset and its
    length in bytes. *)

type node_state = {
  s_id : int;
  s_leads : int option;  (** [Some v] while the node is the primary of view [v] *)
  s_chunks : entry array;  (** the received chunk table *)
  s_durable : int;
  s_safe : int;
  s_applied : int;  (** frontiers, as chunk counts *)
}

type release = { r_view : int; r_count : int; r_chunk_view : int; r_end : int }
(** The highest chunk count at which the primary of view [r_view]
    released a commit wait, with that chunk's view and end offset. *)

type snapshot = {
  members : node_state array;
  leaders : (int * int) list;  (** (view, node) of every promotion, node 0's view 1 included *)
  releases : release list;  (** one per view that released a commit, by ascending view *)
}

type rule =
  | Election_safety  (** at most one primary per view *)
  | Log_matching
      (** two nodes that hold index [i] in the same view agree on view,
          offset and length at every index [<= i] *)
  | Leader_completeness
      (** the highest-view primary holds every released chunk of its
          view and earlier ones *)
  | Node_order
      (** applied [<=] safe [<=] durable [<=] received, and views never
          decrease along a chunk table *)

type finding = { rule : rule; detail : string }

val rule_name : rule -> string

val verify : snapshot -> finding list
(** Every broken rule, with the nodes and indexes involved; [[]] on a
    sound group. *)

val check : snapshot -> unit
(** The group's sanitizer hook: returns on a sound snapshot.
    @raise Phoebe_util.Phoebe_error.Bug naming every finding otherwise. *)
