module Stats = Phoebe_util.Stats

type phase = Execute | Lock_wait | Io_wait | Wal_wait | Quorum_wait | Remote_wait
type outcome = Committed | Aborted | Cancelled

let all_phases = [ Execute; Lock_wait; Io_wait; Wal_wait; Quorum_wait; Remote_wait ]
let n_phases = List.length all_phases

let phase_index = function
  | Execute -> 0
  | Lock_wait -> 1
  | Io_wait -> 2
  | Wal_wait -> 3
  | Quorum_wait -> 4
  | Remote_wait -> 5

let phase_label = function
  | Execute -> "execute"
  | Lock_wait -> "lock_wait"
  | Io_wait -> "io_wait"
  | Wal_wait -> "wal_wait"
  | Quorum_wait -> "quorum_wait"
  | Remote_wait -> "remote_wait"

(* The paper's scheduler lets a latched co-routine suspend only on an
   asynchronous page read (§7.1); every other wait under a latch is a
   bug. Both latch checkers call this. *)
let latch_exempt = function
  | Io_wait -> true
  | Execute | Lock_wait | Wal_wait | Quorum_wait | Remote_wait -> false

(* Export suffixes; index-aligned with [phase_index]. *)
let phase_suffix =
  [| "execute_ns"; "lock_wait_ns"; "io_wait_ns"; "wal_flush_wait_ns"; "quorum_wait_ns"; "remote_wait_ns" |]

let max_kinds = 8

(* Per-slot span state: all-int record, so every probe is pure
   mutation. [phase] is the current phase index; [seg_start] is when it
   began; [acc] accumulates closed segments per phase. *)
type slot = {
  mutable active : bool;
  mutable kind : int;
  mutable t0 : int;
  mutable seg_start : int;
  mutable phase : int;
  mutable alloc0 : int;  (** Gc.minor_words at the last CPU entry, as int *)
  mutable alloc_acc : int;  (** words allocated in closed on-CPU segments *)
  acc : int array;
}

type t = {
  slots : slot array;
  mutable kind_names : string array;
  phase_hist : Stats.Histogram.t array array; (* kind x phase *)
  total : Stats.Histogram.t array; (* per kind *)
  alloc : Stats.Scalar.t array; (* per kind: minor words per span *)
  alloc_all : Stats.Scalar.t;
  n_committed : int array;
  n_aborted : int array;
  n_cancelled : int array;
}

(* Minor-heap allocation probe (§4h). [Gc.minor_words] is deterministic
   in OCaml — collections are triggered by allocation, never by wall
   time — so the per-span word counts are stable across runs of a fixed
   seed and safe for byte-identical double-run gates. Stored as an int
   field: a mutable float in a mixed record would box on every store.

   Attribution: the counter is process-global and fibers interleave on
   one OS thread, so a span must only count words allocated while its
   own fiber is on the CPU. The scheduler brackets every dispatch with
   [cpu_on]/[cpu_off]; the span sums those segments, never the words
   other fibers allocate while this one is parked or charge-suspended. *)
let minor_words () = int_of_float (Gc.minor_words ())

let kind_name t k =
  if k = 0 then "other"
  else if k - 1 < Array.length t.kind_names then t.kind_names.(k - 1)
  else Printf.sprintf "kind%d" k

let collect t () =
  let out = ref [] in
  for k = max_kinds - 1 downto 0 do
    if t.n_committed.(k) + t.n_aborted.(k) + t.n_cancelled.(k) > 0 then begin
      let pre = "trace.txn." ^ kind_name t k in
      let phases =
        List.init n_phases (fun p -> (pre ^ "." ^ phase_suffix.(p), Obs.of_hist t.phase_hist.(k).(p)))
      in
      out :=
        ((pre ^ ".committed", Obs.Int t.n_committed.(k))
         :: (pre ^ ".aborted", Obs.Int t.n_aborted.(k))
         :: (pre ^ ".cancelled", Obs.Int t.n_cancelled.(k))
         :: (pre ^ ".total_ns", Obs.of_hist t.total.(k))
         :: (pre ^ ".alloc.minor_words_per_txn", Obs.Float (Stats.Scalar.mean t.alloc.(k)))
         :: phases)
        @ !out
    end
  done;
  if Stats.Scalar.count t.alloc_all > 0 then
    out := ("txn.alloc.minor_words_per_txn", Obs.Float (Stats.Scalar.mean t.alloc_all)) :: !out;
  !out

let create ?obs ~n_slots () =
  let t =
    {
      slots =
        Array.init (max n_slots 1) (fun _ ->
            {
              active = false;
              kind = 0;
              t0 = 0;
              seg_start = 0;
              phase = 0;
              alloc0 = 0;
              alloc_acc = 0;
              acc = Array.make n_phases 0;
            });
      kind_names = [||];
      phase_hist = Array.init max_kinds (fun _ -> Array.init n_phases (fun _ -> Stats.Histogram.create ()));
      total = Array.init max_kinds (fun _ -> Stats.Histogram.create ());
      alloc = Array.init max_kinds (fun _ -> Stats.Scalar.create ());
      alloc_all = Stats.Scalar.create ();
      n_committed = Array.make max_kinds 0;
      n_aborted = Array.make max_kinds 0;
      n_cancelled = Array.make max_kinds 0;
    }
  in
  (match obs with None -> () | Some reg -> Obs.add_collector reg (collect t));
  t

let set_kind_names t names = t.kind_names <- names

let begin_span t ~slot ~now =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    s.active <- true;
    s.kind <- 0;
    s.t0 <- now;
    s.seg_start <- now;
    s.phase <- 0;
    s.alloc0 <- minor_words ();
    s.alloc_acc <- 0;
    Array.fill s.acc 0 n_phases 0
  end

let set_kind t ~slot k =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    if s.active then s.kind <- (if k < 0 || k >= max_kinds then 0 else k)
  end

let cpu_on t ~slot =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    if s.active then s.alloc0 <- minor_words ()
  end

let cpu_off t ~slot =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    if s.active then s.alloc_acc <- s.alloc_acc + (minor_words () - s.alloc0)
  end

let suspend t ~slot phase ~now =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    if s.active then begin
      s.acc.(s.phase) <- s.acc.(s.phase) + (now - s.seg_start);
      s.seg_start <- now;
      s.phase <- phase_index phase
    end
  end

let resume t ~slot ~now =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    if s.active && s.phase <> 0 then begin
      s.acc.(s.phase) <- s.acc.(s.phase) + (now - s.seg_start);
      s.seg_start <- now;
      s.phase <- 0
    end
  end

let end_span t ~slot ~now ~outcome =
  if slot >= 0 && slot < Array.length t.slots then begin
    let s = t.slots.(slot) in
    if s.active then begin
      s.acc.(s.phase) <- s.acc.(s.phase) + (now - s.seg_start);
      s.active <- false;
      let k = s.kind in
      for p = 0 to n_phases - 1 do
        Stats.Histogram.add t.phase_hist.(k).(p) s.acc.(p)
      done;
      Stats.Histogram.add t.total.(k) (now - s.t0);
      (* The fiber is on the CPU when it ends its span: close the open
         allocation segment, then reopen it for the code that follows
         (a subsequent begin_span on this slot resets it anyway). *)
      let mw = minor_words () in
      let dw = float_of_int (s.alloc_acc + (mw - s.alloc0)) in
      s.alloc0 <- mw;
      Stats.Scalar.add t.alloc.(k) dw;
      Stats.Scalar.add t.alloc_all dw;
      match outcome with
      | Committed -> t.n_committed.(k) <- t.n_committed.(k) + 1
      | Aborted -> t.n_aborted.(k) <- t.n_aborted.(k) + 1
      | Cancelled -> t.n_cancelled.(k) <- t.n_cancelled.(k) + 1
    end
  end

let finished t ~kind = t.n_committed.(kind) + t.n_aborted.(kind) + t.n_cancelled.(kind)
let committed t ~kind = t.n_committed.(kind)
let aborted t ~kind = t.n_aborted.(kind)
let cancelled t ~kind = t.n_cancelled.(kind)
let minor_words_per_txn t ~kind = Stats.Scalar.mean t.alloc.(kind)
let phase_ns t ~kind phase = Stats.Histogram.sum t.phase_hist.(kind).(phase_index phase)
let total_ns t ~kind = Stats.Histogram.sum t.total.(kind)
let total_hist t ~kind = t.total.(kind)
