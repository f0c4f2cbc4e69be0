module Varint = Phoebe_util.Varint
module Crc32 = Phoebe_util.Crc32
module Value = Phoebe_storage.Value

type op =
  | Insert of { table : int; rid : int; row : Value.t array }
  | Update of { table : int; rid : int; cols : (int * Value.t) array }
  | Delete of { table : int; rid : int }
  | Commit of { xid : int; cts : int }
  | Abort of { xid : int }
  | Prepare of { xid : int; gxid : int; coord : int }

type t = { slot : int; lsn : int; gsn : int; op : op }

let encode_body buf t =
  Varint.write_uint buf t.slot;
  Varint.write_uint buf t.lsn;
  Varint.write_uint buf t.gsn;
  match t.op with
  | Insert { table; rid; row } ->
    Buffer.add_char buf 'I';
    Varint.write_uint buf table;
    Varint.write_uint buf rid;
    Varint.write_uint buf (Array.length row);
    (* indexed loop: a partial application of [Value.encode buf] is a
       per-record closure allocation *)
    for i = 0 to Array.length row - 1 do
      Value.encode buf row.(i)
    done
  | Update { table; rid; cols } ->
    Buffer.add_char buf 'U';
    Varint.write_uint buf table;
    Varint.write_uint buf rid;
    Varint.write_uint buf (Array.length cols);
    for i = 0 to Array.length cols - 1 do
      let c, v = cols.(i) in
      Varint.write_uint buf c;
      Value.encode buf v
    done
  | Delete { table; rid } ->
    Buffer.add_char buf 'D';
    Varint.write_uint buf table;
    Varint.write_uint buf rid
  | Commit { xid; cts } ->
    Buffer.add_char buf 'C';
    Varint.write_int buf xid;
    Varint.write_uint buf cts
  | Abort { xid } ->
    Buffer.add_char buf 'A';
    Varint.write_int buf xid
  | Prepare { xid; gxid; coord } ->
    Buffer.add_char buf 'P';
    Varint.write_int buf xid;
    Varint.write_int buf gxid;
    Varint.write_uint buf coord

(* Encoding scratch: the body is staged once so its length and CRC can
   prefix it, but through module-level reusable storage instead of a
   fresh [Buffer.create 64] per record — [encode] runs once per tuple
   write on the execute hot path. Safe because the kernel is single-
   domain and nothing inside [encode_body] can suspend a fiber. *)
let body_scratch = Buffer.create 256
let crc_scratch = ref (Bytes.create 256)

(* lint: hot-path *)
let encode buf t =
  Buffer.clear body_scratch;
  encode_body body_scratch t;
  let len = Buffer.length body_scratch in
  if Bytes.length !crc_scratch < len then crc_scratch := Bytes.create (2 * len); (* lint: allow hot-path-alloc — scratch growth, amortized *)
  Buffer.blit body_scratch 0 !crc_scratch 0 len;
  Varint.write_uint buf len;
  Varint.write_uint buf (Crc32.bytes !crc_scratch ~pos:0 ~len);
  Buffer.add_subbytes buf !crc_scratch 0 len

let decode b off =
  let len, off = Varint.read_uint b off in
  let crc, off = Varint.read_uint b off in
  if off + len > Bytes.length b then failwith "Record.decode: truncated";
  if Crc32.bytes b ~pos:off ~len <> crc then failwith "Record.decode: checksum mismatch";
  let endpos = off + len in
  let slot, off = Varint.read_uint b off in
  let lsn, off = Varint.read_uint b off in
  let gsn, off = Varint.read_uint b off in
  let tag = Bytes.get b off in
  let off = off + 1 in
  let record =
    match tag with
    | 'I' ->
      let table, off = Varint.read_uint b off in
      let rid, off = Varint.read_uint b off in
      let n, off = Varint.read_uint b off in
      let off = ref off in
      let row =
        Array.init n (fun _ ->
            let v, o = Value.decode b !off in
            off := o;
            v)
      in
      Insert { table; rid; row }
    | 'U' ->
      let table, off = Varint.read_uint b off in
      let rid, off = Varint.read_uint b off in
      let n, off = Varint.read_uint b off in
      let off = ref off in
      let cols =
        Array.init n (fun _ ->
            let c, o = Varint.read_uint b !off in
            let v, o = Value.decode b o in
            off := o;
            (c, v))
      in
      Update { table; rid; cols }
    | 'D' ->
      let table, off = Varint.read_uint b off in
      let rid, _ = Varint.read_uint b off in
      Delete { table; rid }
    | 'C' ->
      let xid, off = Varint.read_int b off in
      let cts, _ = Varint.read_uint b off in
      Commit { xid; cts }
    | 'A' ->
      let xid, _ = Varint.read_int b off in
      Abort { xid }
    | 'P' ->
      let xid, off = Varint.read_int b off in
      let gxid, off = Varint.read_int b off in
      let coord, _ = Varint.read_uint b off in
      Prepare { xid; gxid; coord }
    | c -> Fmt.failwith "Record.decode: bad tag %C" c
  in
  ({ slot; lsn; gsn; op = record }, endpos)

type stop_reason = Eof | Torn | Corrupt
type stop = { stop_offset : int; reason : stop_reason; bytes_skipped : int }

(* Distinguish "the file simply ends mid-record" (a torn tail — the
   normal shape after a crash) from "the file continues but the record
   is wrong" (corruption — bit rot, a misdirected write, a bug). The
   header is re-read defensively: a flipped bit can turn the length
   varint into garbage that sends [decode] out of bounds. *)
let classify b off =
  match Varint.read_uint b off with
  | exception (Failure _ | Invalid_argument _) -> Torn
  | len, off' -> (
    match Varint.read_uint b off' with
    | exception (Failure _ | Invalid_argument _) -> Torn
    | _crc, off'' -> if len < 0 || off'' + len > Bytes.length b then Torn else Corrupt)

let decode_all b =
  let n = Bytes.length b in
  let rec go off acc =
    if off >= n then (List.rev acc, { stop_offset = off; reason = Eof; bytes_skipped = 0 })
    else
      match decode b off with
      | r, off' -> go off' (r :: acc)
      | exception (Failure _ | Invalid_argument _) ->
        (List.rev acc, { stop_offset = off; reason = classify b off; bytes_skipped = n - off })
  in
  go 0 []

let size_scratch = Buffer.create 256

let size_bytes t =
  Buffer.clear size_scratch;
  encode size_scratch t;
  Buffer.length size_scratch
