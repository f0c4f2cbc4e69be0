(* Each file is its full append history plus a queue of extents not yet
   absorbed into the durable frontier. Appends to one file are absorbed
   in order: an extent's bytes only join [durable] once every earlier
   extent of that file is on media, so the frontier is always a
   contiguous prefix of the history.

   The history is kept as fixed-size chunks rather than one growing
   buffer: a doubling buffer holds up to twice the log it stores and
   copies all of it on every growth, while chunks hold at most one
   partly filled chunk beyond the log and are never copied. *)

module Engine = Phoebe_sim.Engine
module Sanitize = Phoebe_sanitize.Sanitize

type extent = {
  e_len : int;
  mutable e_state : [ `Pending | `Done | `Media_no_ack | `Torn of int ];
  e_ack : unit -> unit;
}

let chunk_size = 65536

type wfile = {
  mutable chunks : Bytes.t array;
      (** every appended byte, in append order: byte [i] is at offset
          [i mod chunk_size] of chunk [i / chunk_size] *)
  mutable len : int;  (** bytes appended (and not lost to a crash) *)
  mutable durable : int;  (** contiguous media frontier, in bytes *)
  extents : extent Queue.t;  (** appended but not yet absorbed, in order *)
}

type t = {
  dev : Device.t;
  sid : int;
      (** sanitizer scope: file numbers restart per store instance, so
          WAL monotonicity state is keyed on [(sid, file)] *)
  files : (int, wfile) Hashtbl.t;
  mutable appended : int;
  mutable crashes : int;
}

let create dev =
  {
    dev;
    sid = Sanitize.next_uid ();
    files = Hashtbl.create 64;
    appended = 0;
    crashes = 0;
  }

let id t = t.sid

let file_for t file =
  match Hashtbl.find_opt t.files file with
  | Some f -> f
  | None ->
    (* lint: allow hot-path-alloc — a WAL file's first append *)
    let f = { chunks = [||]; len = 0; durable = 0; extents = Queue.create () } in
    Hashtbl.add t.files file f;
    f

let chunks_for len = (len + chunk_size - 1) / chunk_size

(* Copy [n] bytes of [src] from [srcoff] on into the history at byte
   [pos], one chunk at a time, with [blit] ([Bytes.blit] or
   [Buffer.blit]). Chunks [0, chunks_for f.len) are allocated; later
   slots hold [Bytes.empty] until a write reaches them. *)
let rec write_from f blit src n srcoff pos =
  if srcoff < n then begin
    let i = pos / chunk_size and off = pos mod chunk_size in
    if Bytes.length f.chunks.(i) = 0 then f.chunks.(i) <- Bytes.create chunk_size;
    let k = min (n - srcoff) (chunk_size - off) in
    blit src srcoff f.chunks.(i) off k;
    write_from f blit src n (srcoff + k) (pos + k)
  end

let add_bytes f blit src n =
  let need = chunks_for (f.len + n) in
  let have = Array.length f.chunks in
  if need > have then begin
    let grown = Array.make (max need (2 * have)) Bytes.empty in
    Array.blit f.chunks 0 grown 0 have;
    f.chunks <- grown
  end;
  write_from f blit src n 0 f.len;
  f.len <- f.len + n

(* Fill [out] from byte [pos] on with the history's bytes at [pos]. *)
let rec read_into f out pos =
  if pos < Bytes.length out then begin
    let off = pos mod chunk_size in
    let k = min (Bytes.length out - pos) (chunk_size - off) in
    Bytes.blit f.chunks.(pos / chunk_size) off out pos k;
    read_into f out (pos + k)
  end

(* Drop the history past [len] bytes, freeing the chunks it no longer
   reaches. *)
let truncate f len =
  let keep = chunks_for len in
  for i = keep to Array.length f.chunks - 1 do
    f.chunks.(i) <- Bytes.empty
  done;
  f.len <- len

(* Absorb the longest all-on-media prefix of the extent queue into the
   durable frontier. Acks fire in append order; a lost-ack extent
   advances the frontier immediately (its bytes are on media) but its
   ack is only delivered after the host's completion-timeout + verify
   pass — until then the writer legitimately believes the flush is
   still in flight. *)
let advance t file f =
  let rec go () =
    match Queue.peek_opt f.extents with
    | Some e when e.e_state = `Done ->
      ignore (Queue.pop f.extents);
      f.durable <- f.durable + e.e_len;
      e.e_ack ();
      go ()
    | Some e when e.e_state = `Media_no_ack ->
      ignore (Queue.pop f.extents);
      f.durable <- f.durable + e.e_len;
      Engine.schedule (Device.engine t.dev) ~delay:Device.fault_recovery_ns e.e_ack;
      go ()
    | _ -> ()
  in
  go ();
  if Sanitize.on () then
    Sanitize.wal_frontier ~scope:t.sid ~file ~durable:f.durable ~appended:f.len

let submit t ~file f n ~on_durable =
  t.appended <- t.appended + n;
  let e = { e_len = n; e_state = `Pending; e_ack = on_durable } in
  Queue.push e f.extents;
  let epoch = t.crashes in
  let rec on_outcome _ outcome =
    (match outcome with
    | Device.W_done -> e.e_state <- `Done
    | Device.W_lost_ack -> e.e_state <- `Media_no_ack
    | Device.W_torn media ->
      (* keep the largest prefix known on media across retries *)
      e.e_state <-
        (match e.e_state with `Torn m when m > media -> `Torn m | _ -> `Torn media);
      (* the host's completion timeout fires, the log manager finds the
         short write and rewrites the extent tail from its buffer *)
      Engine.schedule (Device.engine t.dev) ~delay:Device.fault_recovery_ns (fun () ->
          if t.crashes = epoch then
            Device.submit_writes t.dev ~sizes:[ e.e_len ] ~on_outcome));
    advance t file f
  in
  Device.submit_writes t.dev ~sizes:[ n ] ~on_outcome

let append t ~file bytes ~on_durable =
  let f = file_for t file in
  add_bytes f Bytes.blit bytes (Bytes.length bytes);
  submit t ~file f (Bytes.length bytes) ~on_durable

(* The WAL writer's flush: the bytes are blitted straight from its
   buffer into the chunks, with no intermediate copy, and the buffer is
   cleared for the writer's next batch. *)
let append_buffer t ~file buf ~on_durable =
  let f = file_for t file and n = Buffer.length buf in
  add_bytes f Buffer.blit buf n;
  Buffer.clear buf;
  submit t ~file f n ~on_durable

(* The live view: everything appended, durable or not. A running system
   reading its own WAL sees its own writes; [crash] is what makes the
   volatile tail actually disappear. *)
let contents t ~file =
  match Hashtbl.find_opt t.files file with
  | Some f ->
    let out = Bytes.create f.len in
    read_into f out 0;
    out
  | None -> Bytes.empty

let durable_frontier t ~file =
  match Hashtbl.find_opt t.files file with Some f -> f.durable | None -> 0

let pending_bytes t ~file =
  match Hashtbl.find_opt t.files file with
  | Some f -> f.len - f.durable
  | None -> 0

let crash ?tear t =
  t.crashes <- t.crashes + 1;
  (* a resumed writer restarts below the LSNs the lost tail had already
     recorded, so per-file LSN history must not survive the crash; the
     durable frontier does — it is monotone across power loss *)
  if Sanitize.on () then Sanitize.wal_crash ~scope:t.sid;
  Hashtbl.fold (fun file f acc -> (file, f) :: acc) t.files []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (file, f) ->
         (* Only the first unabsorbed extent can contribute bytes past
            the frontier: a torn write keeps its sector prefix, and an
            in-flight write may tear at a random sector boundary when
            the caller asks for it. Later extents are unreachable even
            if the device finished them — the hole in front of them
            makes the log undecodable there, so the media image drops
            them. *)
         let extra =
           match Queue.peek_opt f.extents with
           | Some { e_state = `Torn media; e_len; _ } -> min media e_len
           | Some { e_state = `Pending; e_len; _ } -> (
             match tear with
             | None -> 0
             | Some rng ->
               let sectors = (e_len + Device.sector_size - 1) / Device.sector_size in
               min e_len (Phoebe_util.Prng.int_incl rng 0 sectors * Device.sector_size))
           | _ -> 0
         in
         let survive = f.durable + extra in
         let total = f.len in
         truncate f survive;
         f.durable <- survive;
         Queue.clear f.extents;
         (file, survive, total - survive))

let truncate t ~file len =
  match Hashtbl.find_opt t.files file with
  | None -> ()
  | Some f ->
    if len > f.len || not (Queue.is_empty f.extents) then
      invalid_arg "Walstore.truncate: past the surviving bytes or with a write in flight";
    truncate f len;
    f.durable <- min f.durable len;
    if Sanitize.on () then Sanitize.wal_truncate ~scope:t.sid ~file ~durable:f.durable

let files t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort Int.compare

let total_appended t = t.appended
let crash_count t = t.crashes
let device t = t.dev
