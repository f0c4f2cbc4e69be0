(* Two image tables: [latest] is the host's read-your-writes view
   (updated at submission time, like a page cache), [durable] is what is
   actually on media (updated only by device completions). Page writes
   are atomic at page granularity — a torn page write leaves the old
   durable image in place (full-page-write / atomic-swap semantics), so
   torn-write injection on a page device means "the write never
   happened", never a half-page. Out-of-order completions to the same
   page are resolved by a per-write sequence number. *)

module Engine = Phoebe_sim.Engine

type durable_image = { d_seq : int; d_bytes : Bytes.t }

type t = {
  dev : Device.t;
  latest : (int, Bytes.t) Hashtbl.t;
  durable : (int, durable_image) Hashtbl.t;
  mutable next_seq : int;
  mutable stored : int;  (** total bytes in [latest] *)
  mutable inflight : int;  (** ops submitted whose [on_media] has not fired *)
  idle_waiters : (unit -> unit) Queue.t;  (** run (FIFO) when [inflight] drops to 0 *)
  mutable torn_writes : int;
  mutable lost_acks : int;
}

let create dev =
  {
    dev;
    latest = Hashtbl.create 1024;
    durable = Hashtbl.create 1024;
    next_seq = 0;
    stored = 0;
    inflight = 0;
    idle_waiters = Queue.create ();
    torn_writes = 0;
    lost_acks = 0;
  }

let put t page_id content =
  (match Hashtbl.find_opt t.latest page_id with
  | Some old -> t.stored <- t.stored - Bytes.length old
  | None -> ());
  Hashtbl.replace t.latest page_id content;
  t.stored <- t.stored + Bytes.length content

let install_durable t page_id ~seq content =
  match Hashtbl.find_opt t.durable page_id with
  | Some d when d.d_seq > seq -> ()
  | _ -> Hashtbl.replace t.durable page_id { d_seq = seq; d_bytes = content }

(* Per-op fault recovery, so faults degrade latency instead of wedging
   waiters: a lost completion is resolved by the host's timeout + verify
   pass (the ack arrives very late), a torn write by timeout + rewrite
   (retried until it lands — full-page-write semantics mean the old
   durable image stays intact throughout). *)
let rec handle_outcome t page_id content seq ~on_media outcome =
  match outcome with
  | Device.W_done ->
    install_durable t page_id ~seq content;
    on_media ()
  | Device.W_lost_ack ->
    t.lost_acks <- t.lost_acks + 1;
    install_durable t page_id ~seq content;
    Engine.schedule (Device.engine t.dev) ~delay:Device.fault_recovery_ns on_media
  | Device.W_torn _ ->
    t.torn_writes <- t.torn_writes + 1;
    Engine.schedule (Device.engine t.dev) ~delay:Device.fault_recovery_ns (fun () ->
        Device.submit_writes t.dev
          ~sizes:[ Bytes.length content ]
          ~on_outcome:(fun _ o -> handle_outcome t page_id content seq ~on_media o))

(* Submit [pages] as one doorbell; each op's outcome updates the durable
   table, and [on_media i] fires once the host knows the op is on media
   (possibly only after fault recovery). *)
let submit_pages t pages ~on_media =
  let ops =
    Array.of_list
      (List.map
         (fun (page_id, content) ->
           let seq = t.next_seq in
           t.next_seq <- seq + 1;
           put t page_id content;
           (page_id, content, seq))
         pages)
  in
  t.inflight <- t.inflight + Array.length ops;
  Device.submit_writes t.dev
    ~sizes:(List.map (fun (_, content) -> Bytes.length content) pages)
    ~on_outcome:(fun i outcome ->
      let page_id, content, seq = ops.(i) in
      handle_outcome t page_id content seq
        ~on_media:(fun () ->
          t.inflight <- t.inflight - 1;
          on_media i;
          (* a waiter may resubmit pages; re-check idleness each pop *)
          while t.inflight = 0 && not (Queue.is_empty t.idle_waiters) do
            (Queue.pop t.idle_waiters) ()
          done)
        outcome)

let write t ~page_id content =
  Phoebe_runtime.Scheduler.io_wait (fun resume ->
      submit_pages t [ (page_id, Bytes.copy content) ] ~on_media:(fun _ -> resume ()))

let write_batch t pages ~on_complete =
  match pages with
  | [] -> on_complete ()
  | _ ->
    let pages = List.map (fun (page_id, content) -> (page_id, Bytes.copy content)) pages in
    let remaining = ref (List.length pages) in
    submit_pages t pages ~on_media:(fun _ ->
        decr remaining;
        if !remaining = 0 then on_complete ())

let read t ~page_id =
  match Hashtbl.find_opt t.latest page_id with
  | None -> raise Not_found
  | Some content ->
    Device.blocking t.dev Device.Read ~bytes:(Bytes.length content);
    Bytes.copy content

let mem t ~page_id = Hashtbl.mem t.latest page_id

let max_page_id t = Hashtbl.fold (fun id _ acc -> max id acc) t.latest 0

(* A delete leaves the durable image in place: the last published
   snapshot may still name the page, and a crash before the next [sync]
   must find it there. *)
let delete t ~page_id =
  match Hashtbl.find_opt t.latest page_id with
  | Some old ->
    t.stored <- t.stored - Bytes.length old;
    Hashtbl.remove t.latest page_id
  | None -> ()

let crash t =
  (* the engine queue was cleared: in-flight completions are gone *)
  t.inflight <- 0;
  Queue.clear t.idle_waiters;
  let lost = ref 0 in
  Hashtbl.iter
    (fun page_id _ -> if not (Hashtbl.mem t.durable page_id) then incr lost)
    t.latest;
  Hashtbl.reset t.latest;
  t.stored <- 0;
  Hashtbl.iter
    (fun page_id d ->
      Hashtbl.replace t.latest page_id (Bytes.copy d.d_bytes);
      t.stored <- t.stored + Bytes.length d.d_bytes)
    t.durable;
  !lost

(* Force convergence of the durable table onto the latest view — the
   fsync barrier. First drain every in-flight write (per-op fault
   recovery in [handle_outcome] guarantees each [on_media] eventually
   fires, so idleness arrives); only then resubmit whatever still
   diverges. Waiting instead of eagerly resubmitting matters: at a
   checkpoint the cleaner routinely has batches in flight, and a sync
   that re-wrote them would double the write traffic for nothing. At
   idle, divergence means a write actually failed and was superseded, so
   the resubmission loop normally runs zero times. Pages are sorted for
   deterministic submission order. Once nothing diverges, durable images
   of deleted pages are dropped: the snapshot this barrier publishes no
   longer names them. *)
let rec sync t ~on_complete =
  if t.inflight > 0 then Queue.push (fun () -> sync t ~on_complete) t.idle_waiters
  else begin
    let volatile =
      Hashtbl.fold
        (fun page_id content acc ->
          match Hashtbl.find_opt t.durable page_id with
          | Some d when Bytes.equal d.d_bytes content -> acc
          | _ -> (page_id, content) :: acc)
        t.latest []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    match volatile with
    | [] ->
      Hashtbl.filter_map_inplace
        (fun page_id d -> if Hashtbl.mem t.latest page_id then Some d else None)
        t.durable;
      on_complete ()
    | pages ->
      let remaining = ref (List.length pages) in
      submit_pages t pages ~on_media:(fun _ ->
          decr remaining;
          if !remaining = 0 then sync t ~on_complete)
  end

let durable_page_count t = Hashtbl.length t.durable
let fault_stats t = (t.torn_writes, t.lost_acks)
let page_count t = Hashtbl.length t.latest
let stored_bytes t = t.stored
let device t = t.dev
