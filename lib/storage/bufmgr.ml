module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost
module Engine = Phoebe_sim.Engine
module Pagestore = Phoebe_io.Pagestore
module Stats = Phoebe_util.Stats
module Obs = Phoebe_obs.Obs
module Sanitize = Phoebe_sanitize.Sanitize

type state = Hot | Cooling

type 'p codec = { encode : 'p -> Bytes.t; decode : Bytes.t -> 'p; size : 'p -> int }

type 'p steal_guard = { unsafe : page_id:int -> 'p -> bool; strip : page_id:int -> 'p -> 'p }

(* every page is safe: a pool with no transactions over it *)
let no_guard = { unsafe = (fun ~page_id:_ _ -> false); strip = (fun ~page_id:_ p -> p) }

type 'p frame = {
  fpage_id : int;
  fpartition : int;
  flatch : Latch.t;
  mutable fpayload : 'p option;
  mutable fstate : state;
  mutable fdirty : bool;
  mutable fin_flight : bool;  (** part of a cleaner batch the device has not completed *)
  mutable fqueued : bool;  (** enqueued on the partition's dirty-cooling queue *)
  mutable fpinned : int;
  mutable fsize : int;
  mutable faccess_count : int;
  mutable flast_access : int;
  mutable fparent : 'p swip option;
}

and 'p ref_state = Swizzled of 'p frame | Unswizzled of int

and 'p swip = { mutable ptr : 'p ref_state }

type 'p partition = {
  frames : (int, 'p frame) Hashtbl.t;  (** resident frames by page id *)
  cooling : 'p frame Queue.t;
  dirty_cooling : 'p frame Queue.t;  (** dirty cooling frames awaiting the cleaner *)
  mutable cleaner_active : bool;  (** a cleaner fiber is scheduled or draining *)
  mutable used_bytes : int;
  mutable budget : int;
  mutable clock : 'p frame list;  (** snapshot used by the cooling sweep *)
}

type cleaner_config = {
  cl_enabled : bool;
  cl_batch_pages : int;  (** max pages per vectored device submission (K) *)
}

let default_cleaner = { cl_enabled = true; cl_batch_pages = 16 }

(* used/budget fraction at which the cleaner starts draining *)
let cleaner_wm_low = 0.7

type cleaner_stats = {
  batches_submitted : int;
  pages_cleaned : int;
  pages_requeued : int;  (** re-dirtied while their batch was in flight *)
  clean_evicts : int;
  dirty_evict_fallbacks : int;
}

type 'p t = {
  engine : Engine.t;
  pstore : Pagestore.t;
  scope : int;
      (** sanitizer scope: page ids restart per instance, so the frame
          state machine keys its residency mirror on [(scope, page_id)] *)
  parts : 'p partition array;
  codec : 'p codec;
  mutable next_page_id : int;
  mutable cleaner_cfg : cleaner_config;
  mutable cleaner_sched : Scheduler.t option;
  mutable guard : 'p steal_guard;
      (** asked of every payload just before it is encoded for the
          store: an unsafe page is written as its stripped copy (the
          live page is never touched) *)
  cl_batches : Obs.Counter.t;
  cl_pages : Obs.Counter.t;
  cl_requeued : Obs.Counter.t;
  cl_clean_evicts : Obs.Counter.t;
  cl_dirty_fallbacks : Obs.Counter.t;
  cl_batch_sizes : Stats.Scalar.t;
}

let create ?obs engine ~store ~partitions ~budget_bytes ~codec =
  let per = budget_bytes / max 1 partitions in
  let counter metric =
    match obs with Some reg -> Obs.counter reg metric | None -> Obs.Counter.create ()
  in
  let t =
  {
    engine;
    pstore = store;
    scope = Sanitize.next_uid ();
    parts =
      Array.init partitions (fun _ ->
          {
            frames = Hashtbl.create 256;
            cooling = Queue.create ();
            dirty_cooling = Queue.create ();
            cleaner_active = false;
            used_bytes = 0;
            budget = per;
            clock = [];
          });
    codec;
    (* over a surviving store (a restart), fresh ids start past every
       stored image: the restored tree's cold swips still name them *)
    next_page_id = Pagestore.max_page_id store;
    cleaner_cfg = { default_cleaner with cl_enabled = false };
    cleaner_sched = None;
    guard = no_guard;
    cl_batches = counter "buf.cleaner.batches";
    cl_pages = counter "buf.cleaner.pages";
    cl_requeued = counter "buf.cleaner.requeued";
    cl_clean_evicts = counter "buf.cleaner.clean_evicts";
    cl_dirty_fallbacks = counter "buf.cleaner.dirty_evict_fallbacks";
    cl_batch_sizes =
      (match obs with
      | Some reg -> Obs.scalar reg "buf.cleaner.batch_pages"
      | None -> Stats.Scalar.create ());
  }
  in
  (match obs with
  | None -> ()
  | Some reg ->
    Obs.int_fn reg "buf.resident_bytes" (fun () ->
        Array.fold_left (fun acc p -> acc + p.used_bytes) 0 t.parts);
    Obs.int_fn reg "buf.resident_pages" (fun () ->
        Array.fold_left (fun acc p -> acc + Hashtbl.length p.frames) 0 t.parts));
  t

let attach_cleaner t ~scheduler cfg =
  t.cleaner_cfg <- cfg;
  t.cleaner_sched <- (if cfg.cl_enabled then Some scheduler else None)

let cleaner_config t = t.cleaner_cfg

let cleaner_on t = t.cleaner_cfg.cl_enabled && t.cleaner_sched <> None

let cleaner_stats t =
  {
    batches_submitted = Obs.Counter.get t.cl_batches;
    pages_cleaned = Obs.Counter.get t.cl_pages;
    pages_requeued = Obs.Counter.get t.cl_requeued;
    clean_evicts = Obs.Counter.get t.cl_clean_evicts;
    dirty_evict_fallbacks = Obs.Counter.get t.cl_dirty_fallbacks;
  }

let set_budget t ~budget_bytes =
  let per = budget_bytes / max 1 (Array.length t.parts) in
  Array.iter (fun p -> p.budget <- per) t.parts

let now t = Engine.now t.engine

(* A resident frame for [page_id] in [partition], the one frame builder:
   its latch tagged and classed, the frame entered in the partition's
   table and its bytes accounted. A new page and a faulted-in one differ
   only in the dirty bit, the access count and the parent swip. *)
let new_frame t ~partition ~page_id payload ~dirty ~access_count ~parent =
  let part = t.parts.(partition) in
  let frame =
    {
      fpage_id = page_id;
      fpartition = partition;
      flatch = Latch.create ();
      fpayload = Some payload;
      fstate = Hot;
      fdirty = dirty;
      fin_flight = false;
      fqueued = false;
      fpinned = 0;
      fsize = t.codec.size payload;
      faccess_count = access_count;
      flast_access = now t;
      fparent = parent;
    }
  in
  Latch.set_tag frame.flatch page_id;
  Latch.set_class frame.flatch "bufmgr.flatch";
  Hashtbl.replace part.frames page_id frame;
  part.used_bytes <- part.used_bytes + frame.fsize;
  frame

let alloc t ~partition payload =
  t.next_page_id <- t.next_page_id + 1;
  let frame =
    new_frame t ~partition ~page_id:t.next_page_id payload ~dirty:true ~access_count:0 ~parent:None
  in
  if Sanitize.on () then
    Sanitize.frame_alloc ~scope:t.scope ~page_id:frame.fpage_id ~frame:(Latch.uid frame.flatch);
  frame

let swip_of frame = { ptr = Swizzled frame }

(* One latch for every vacant frame: nothing ever takes it. *)
let vacant_latch = Latch.create ()

let vacant () =
  {
    fpage_id = -1;
    fpartition = 0;
    flatch = vacant_latch;
    fpayload = None;
    fstate = Hot;
    fdirty = false;
    fin_flight = false;
    fqueued = false;
    fpinned = 0;
    fsize = 0;
    faccess_count = 0;
    flast_access = 0;
    fparent = None;
  }

let payload frame =
  match frame.fpayload with
  | Some p -> p
  | None -> invalid_arg "Bufmgr.payload: frame not resident"

(* The one residency rule: a frame is resident iff it holds its payload.
   Eviction and drop clear the payload, and a page faulted back in gets
   a new frame, so a queue entry can outlive its frame's residency:
   every consumer asks this of the frame itself, never whether the
   partition holds some frame with the same page id. *)
let is_resident f = f.fpayload <> None

let latch f = f.flatch
let page_id f = f.fpage_id
let mark_dirty f = f.fdirty <- true
let is_dirty f = f.fdirty

let update_size t frame =
  let part = t.parts.(frame.fpartition) in
  let size = match frame.fpayload with Some p -> t.codec.size p | None -> 0 in
  part.used_bytes <- part.used_bytes + size - frame.fsize;
  frame.fsize <- size

let pin f = f.fpinned <- f.fpinned + 1

let unpin f =
  if f.fpinned <= 0 then invalid_arg "Bufmgr.unpin: not pinned";
  f.fpinned <- f.fpinned - 1

let set_parent f swip = f.fparent <- Some swip

let touch_frame t frame ~touch =
  (* the OLTP temperature counter honours [touch] (scans must not warm
     data, 5.2) but eviction recency must not: any resolver may hold the
     frame reference across a coalesced-charge suspension *)
  if touch then frame.faccess_count <- frame.faccess_count + 1;
  frame.flast_access <- now t;
  if frame.fstate = Cooling then frame.fstate <- Hot

(* A buffer miss: read the page from the store and swizzle it in. *)
let fault_in t swip pid ~touch =
  Scheduler.charge Component.Buffer (Scheduler.current_cost ()).Cost.buffer_miss;
  let raw = Pagestore.read t.pstore ~page_id:pid in
  (* The calling fiber suspended for the read: someone else may have
     faulted the same page in meanwhile. *)
  match swip.ptr with
  | Swizzled frame ->
    touch_frame t frame ~touch;
    frame
  | Unswizzled _ ->
    let payload = t.codec.decode raw in
    (* Allocate into the faulting worker's partition: ownership of a
       page follows whoever re-heats it. *)
    let partition =
      if Scheduler.in_fiber () then Scheduler.current_worker () mod Array.length t.parts else 0
    in
    let frame =
      new_frame t ~partition ~page_id:pid payload ~dirty:false
        ~access_count:(if touch then 1 else 0)
        ~parent:(Some swip)
    in
    swip.ptr <- Swizzled frame;
    if Sanitize.on () then
      Sanitize.frame_fault_in ~scope:t.scope ~page_id:pid ~frame:(Latch.uid frame.flatch);
    frame

let resolve ?(touch = true) t swip =
  match swip.ptr with
  | Swizzled frame ->
    (* recency first: the charge may suspend at a coalescing boundary,
       and an un-refreshed frame could be evicted in that window *)
    touch_frame t frame ~touch;
    Scheduler.charge Component.Buffer (Scheduler.current_cost ()).Cost.buffer_hit;
    touch_frame t frame ~touch:false;
    frame
  | Unswizzled pid ->
    (* lint: allow hot-path-alloc — buffer miss: an I/O wait for the page read *)
    fault_in t swip pid ~touch

let drop t frame =
  let part = t.parts.(frame.fpartition) in
  if is_resident frame then begin
    Hashtbl.remove part.frames frame.fpage_id;
    part.used_bytes <- part.used_bytes - frame.fsize;
    if Sanitize.on () then
      Sanitize.frame_drop ~scope:t.scope ~page_id:frame.fpage_id ~frame:(Latch.uid frame.flatch)
  end;
  frame.fpayload <- None;
  Pagestore.delete t.pstore ~page_id:frame.fpage_id

(* True when the steal guard's test says this frame's image would have
   to be stripped. Writing such an image is pure write amplification:
   the stripped copy cannot make the frame clean (the frame holds the
   only full image and must stay resident), so callers that have the
   option defer the write until the page is safe instead. The test
   copies nothing, so a declined page costs no image. *)
let would_strip t f =
  match f.fpayload with Some p -> t.guard.unsafe ~page_id:f.fpage_id p | None -> false

(* The one image capture: every image that leaves for the store goes
   through here. A safe page is encoded as it stands; an unsafe one is
   encoded from the guard's stripped copy, the durably-committed view.
   A stripped image is incomplete, so the frame must STAY DIRTY:
   clearing the flag would let a clean-frame eviction drop the only full
   copy and a later reload would resurrect the stripped (older) store
   image. Every caller runs this in the same synchronous stretch as the
   device submission that takes the image (the store copies it before
   the caller can park), so a clean frame always has a current store
   image and a re-dirty during the write keeps the frame dirty. *)
let capture t f =
  let p = payload f in
  let stripped = t.guard.unsafe ~page_id:f.fpage_id p in
  f.fdirty <- stripped;
  if (not stripped) && Sanitize.on () then
    Sanitize.frame_clean ~scope:t.scope ~page_id:f.fpage_id ~frame:(Latch.uid f.flatch);
  t.codec.encode (if stripped then t.guard.strip ~page_id:f.fpage_id p else p)

(* One vectored device submission of [frames]' captured images; the
   calling fiber suspends until every page is on media. *)
let submit_batch t frames =
  let pages = List.map (fun f -> (f.fpage_id, capture t f)) frames in
  let n = List.length pages in
  Obs.Counter.incr t.cl_batches;
  Obs.Counter.add t.cl_pages n;
  Stats.Scalar.add t.cl_batch_sizes (float_of_int n);
  Scheduler.io_wait (fun resume -> Pagestore.write_batch t.pstore pages ~on_complete:resume)

let set_steal_guard t guard = t.guard <- guard
let steal_guard t = t.guard

let access_count f = f.faccess_count
let last_access f = f.flast_access

let halve_access_count f = f.faccess_count <- f.faccess_count / 2

let resident_frame_of_swip swip =
  match swip.ptr with Swizzled f -> Some f | Unswizzled _ -> None

let page_id_of_swip swip =
  match swip.ptr with Swizzled f -> f.fpage_id | Unswizzled pid -> pid

let cold_swip pid = { ptr = Unswizzled pid }

let needs_maintenance t ~partition =
  let part = t.parts.(partition) in
  part.used_bytes > part.budget

(* Frames touched within this window of virtual time are never demoted
   or evicted: a fiber that just resolved a frame may be suspended on a
   coalesced CPU charge and still hold the direct reference. Operations
   that can *wait* (locks, I/O) re-resolve instead of relying on this. *)
let recency_guard_ns = 100_000

(* ------------------------------------------------------------------ *)
(* Background page cleaner *)

let queue_dirty_cooling part f =
  if not f.fqueued then begin
    f.fqueued <- true;
    Queue.push f part.dirty_cooling
  end

let over_watermark part fraction =
  float_of_int part.used_bytes >= fraction *. float_of_int part.budget

(* Demote hot frames to cooling in (arbitrary but stable) clock order.
   Pinned, latched or recently-touched frames are skipped; so are frames
   already cooling. Dirty frames additionally join the partition's
   dirty-cooling queue so the cleaner can write them back in batches. *)
let refill_cooling t part =
  let now = Engine.now t.engine in
  if part.clock = [] then part.clock <- Hashtbl.fold (fun _ f acc -> f :: acc) part.frames [];
  let rec demote budget_frames clock =
    if budget_frames = 0 then clock
    else
      match clock with
      | [] -> []
      | f :: rest ->
        if
          f.fstate = Hot && f.fpinned = 0
          && (not (Latch.is_exclusive f.flatch))
          && now - f.flast_access >= recency_guard_ns
          && is_resident f
        then begin
          if Sanitize.on () then
            Sanitize.frame_demote ~scope:t.scope ~page_id:f.fpage_id ~frame:(Latch.uid f.flatch)
              ~hot:(f.fstate = Hot) ~pinned:f.fpinned;
          f.fstate <- Cooling;
          Queue.push f part.cooling;
          if f.fdirty then queue_dirty_cooling part f;
          demote (budget_frames - 1) rest
        end
        else demote budget_frames rest
  in
  part.clock <- demote 16 part.clock

(* One pass of the cleaner fiber: pull up to K dirty cooling frames off
   the queue, snapshot their images, and push the whole batch through one
   vectored device submission. The frame flips clean *before* the batch
   is registered and the page image is captured in the same synchronous
   stretch (no suspension in between), so a clean frame always has a
   current store image and eviction can unswizzle it without writing. A
   page re-dirtied while its batch is in flight is re-queued afterwards,
   never lost. *)
let rec cleaner_service t partition =
  let part = t.parts.(partition) in
  let cfg = t.cleaner_cfg in
  let c = Scheduler.current_cost () in
  (* Frames deferred this pass because their image would need stripping
     (entries not yet durably committed); they rejoin the queue only
     after the pass so [collect] cannot pull them again at the same
     virtual instant. [wrote] gates the tail re-kick: a pass that wrote
     nothing must not re-arm itself, or an all-deferred queue would spin
     without advancing time. *)
  let deferred = ref [] in
  let wrote = ref false in
  let rec collect k acc =
    if k = 0 then List.rev acc
    else
      match Queue.take_opt part.dirty_cooling with
      | None -> List.rev acc
      | Some f ->
        f.fqueued <- false;
        if f.fstate = Cooling && f.fdirty && (not f.fin_flight) && is_resident f then
          collect (k - 1) (f :: acc)
        else collect k acc
  in
  let clean_batch batch =
    (* defer unsafe frames up front (synchronous — no fiber can change
       page safety between the check and the partition) *)
    let writable, unsafe = List.partition (fun f -> not (would_strip t f)) batch in
    List.iter
      (fun f ->
        Obs.Counter.incr t.cl_requeued;
        deferred := f :: !deferred)
      unsafe;
    match writable with
    | [] -> ()
    | batch ->
      wrote := true;
      Scheduler.charge Component.Cleaner (List.length batch * c.Cost.cleaner_page);
      (* a page can turn unsafe during the charge suspension above; a
         stripped capture stays dirty and is requeued below *)
      List.iter (fun f -> f.fin_flight <- true) batch;
      submit_batch t batch;
      (* batch durable; write coalescing for pages re-dirtied in flight *)
      List.iter
        (fun f ->
          f.fin_flight <- false;
          if f.fdirty && f.fstate = Cooling && is_resident f then begin
            Obs.Counter.incr t.cl_requeued;
            queue_dirty_cooling part f
          end)
        batch
  in
  (* Demote hot frames until a full batch is queued or the sweep stops
     making progress (every frame pinned, latched or recently touched):
     submitting K-page batches — not whatever trickle has cooled so far —
     is what amortises the device's IOPS charge. *)
  let rec top_up attempts =
    if
      attempts > 0
      && Queue.length part.dirty_cooling < cfg.cl_batch_pages
      && over_watermark part cleaner_wm_low
    then begin
      let before = Queue.length part.dirty_cooling + Queue.length part.cooling in
      refill_cooling t part;
      if Queue.length part.dirty_cooling + Queue.length part.cooling > before then
        top_up (attempts - 1)
    end
  in
  let rec pass rounds =
    if rounds > 0 then begin
      top_up 8;
      match collect cfg.cl_batch_pages [] with
      | [] -> ()
      | batch ->
        clean_batch batch;
        pass (rounds - 1)
    end
  in
  pass 64;
  (* deferred frames rejoin the queue for a later pass, once their
     commits' durability has drained *)
  List.iter
    (fun f ->
      if f.fdirty && f.fstate = Cooling && is_resident f then queue_dirty_cooling part f)
    (List.rev !deferred);
  (* the partition may now hold a run of clean cooling frames: unswizzle
     down to budget while we are on the owning worker instead of waiting
     for the next housekeeping cadence *)
  while part.used_bytes > part.budget && evict_one t part do
    ()
  done;
  part.cleaner_active <- false;
  (* dirty frames may have been demoted while the last batch was in
     flight; re-arm rather than leave them stranded — but only if this
     pass made progress, else an all-deferred queue would respawn the
     fiber at the same virtual time forever *)
  if !wrote then kick_cleaner t ~partition

and kick_cleaner t ~partition =
  match t.cleaner_sched with
  | Some sched when t.cleaner_cfg.cl_enabled ->
    let part = t.parts.(partition) in
    (* wait for half a batch to accumulate before waking the fiber —
       draining every one-page trickle would defeat the vectored
       amortisation and re-write hot pages *)
    let quorum = max 1 (t.cleaner_cfg.cl_batch_pages / 2) in
    if
      (not part.cleaner_active)
      && Queue.length part.dirty_cooling >= quorum
      && over_watermark part cleaner_wm_low
    then begin
      part.cleaner_active <- true;
      Scheduler.submit ~affinity:partition sched (fun () -> cleaner_service t partition)
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Eviction *)

and evict_one t part =
  let c = Scheduler.current_cost () in
  let cleaner = cleaner_on t in
  (* dirty frames deferred to the cleaner during this scan; returned to
     the cooling queue afterwards so they keep their second chance *)
  let deferred = ref [] in
  let evict_frame f =
    Scheduler.charge Component.Buffer c.Cost.buffer_evict;
    (* the charge may suspend: the frame is checked again after it, and
       once more after an inline write *)
    if is_resident f then begin
      if not f.fdirty then Obs.Counter.incr t.cl_clean_evicts
      else if not (would_strip t f) then begin
        (* inline fallback: the cleaner is off, unattached, or behind.
           An image that would need stripping is not written at all —
           it could not make the frame evictable anyway, and the
           re-check below keeps the still-dirty frame resident. *)
        Obs.Counter.incr t.cl_dirty_fallbacks;
        Pagestore.write t.pstore ~page_id:f.fpage_id (capture t f)
      end;
      (* Re-check: the write may have suspended us; the frame may have
         been re-heated, re-touched or evicted while we were writing
         back — and a still-dirty frame (stripped write-back, or
         re-dirtied in flight) holds the only full image, so it must
         stay resident. *)
      if
        is_resident f && (not f.fdirty) && f.fstate = Cooling && f.fpinned = 0
        && Engine.now t.engine - f.flast_access >= recency_guard_ns
      then begin
        if Sanitize.on () then
          Sanitize.frame_evict ~scope:t.scope ~page_id:f.fpage_id ~frame:(Latch.uid f.flatch)
            ~dirty:f.fdirty ~pinned:f.fpinned ~cooling:(f.fstate = Cooling);
        (match f.fparent with
        | Some swip -> swip.ptr <- Unswizzled f.fpage_id
        | None -> ());
        f.fpayload <- None;
        Hashtbl.remove part.frames f.fpage_id;
        part.used_bytes <- part.used_bytes - f.fsize
      end
    end;
    true
  in
  let rec try_pop () =
    match Queue.take_opt part.cooling with
    | None -> false
    | Some f ->
      if
        f.fstate <> Cooling || f.fpinned > 0
        || Engine.now t.engine - f.flast_access < recency_guard_ns
        || not (is_resident f)
      then
        (* touched (second chance), recently used, pinned, or a stale
           entry: evicted or dropped since it was queued *)
        try_pop ()
      else if f.fdirty && cleaner then begin
        (* never write inline while the cleaner runs: hand the frame to
           the batch path and look for an already-clean victim instead *)
        deferred := f :: !deferred;
        queue_dirty_cooling part f;
        try_pop ()
      end
      else evict_frame f
  in
  let evicted = try_pop () in
  List.iter (fun f -> Queue.push f part.cooling) (List.rev !deferred);
  (match !deferred with
  | f :: _ -> kick_cleaner t ~partition:f.fpartition
  | [] -> ());
  evicted

let maintain t ~partition =
  let part = t.parts.(partition) in
  let rec go fuel =
    if fuel > 0 && part.used_bytes > part.budget then begin
      if Queue.is_empty part.cooling then refill_cooling t part;
      if evict_one t part then go (fuel - 1)
      else if part.cleaner_active then
        (* every cooling victim is dirty and queued behind the cleaner;
           stop burning CPU — the next housekeeping pass after the batch
           completes will find clean frames to unswizzle *)
        ()
      else begin
        (* no clean victim in the cooling queue: demote more hot frames —
           clean demotions become eviction victims, dirty ones build the
           cleaner's batch toward its quorum (forcing a drain of the
           sub-quorum queue here would re-split the batches the quorum is
           trying to build) *)
        let before = Queue.length part.cooling + Queue.length part.dirty_cooling in
        refill_cooling t part;
        kick_cleaner t ~partition;
        if Queue.length part.cooling + Queue.length part.dirty_cooling > before then
          go (fuel - 1)
      end
    end
  in
  go (Hashtbl.length part.frames + 16);
  kick_cleaner t ~partition

(* ------------------------------------------------------------------ *)
(* Batched write-back (checkpoint path) *)

let chunked n list =
  let rec go acc chunk k = function
    | [] -> List.rev (if chunk = [] then acc else List.rev chunk :: acc)
    | x :: rest ->
      if k = 0 then go (List.rev chunk :: acc) [ x ] (n - 1) rest
      else go acc (x :: chunk) (k - 1) rest
  in
  go [] [] n list

let write_back_batch t frames =
  let dirty = List.filter (fun f -> f.fdirty && is_resident f) frames in
  List.iter (submit_batch t) (chunked (max 1 t.cleaner_cfg.cl_batch_pages) dirty)

let resident_bytes t = Array.fold_left (fun acc p -> acc + p.used_bytes) 0 t.parts
let resident_pages t = Array.fold_left (fun acc p -> acc + Hashtbl.length p.frames) 0 t.parts
let store t = t.pstore
let n_partitions t = Array.length t.parts
