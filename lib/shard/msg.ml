module Varint = Phoebe_util.Varint
module Value = Phoebe_storage.Value

type payload =
  | Exec of { proc : int; args : Value.t array }
  | Exec_ok of { results : Value.t array }
  | Exec_failed of { reason : int }
  | Prepare
  | Vote_yes
  | Vote_no
  | Decide_commit
  | Decide_abort
  | Status_req

type t = { gxid : int; src : int; dst : int; payload : payload }

let encode_body buf t =
  Varint.write_int buf t.gxid;
  Varint.write_uint buf t.src;
  Varint.write_uint buf t.dst;
  match t.payload with
  | Exec { proc; args } ->
    Buffer.add_char buf 'E';
    Varint.write_uint buf proc;
    Varint.write_uint buf (Array.length args);
    for i = 0 to Array.length args - 1 do
      Value.encode buf args.(i)
    done
  | Exec_ok { results } ->
    Buffer.add_char buf 'O';
    Varint.write_uint buf (Array.length results);
    for i = 0 to Array.length results - 1 do
      Value.encode buf results.(i)
    done
  | Exec_failed { reason } ->
    Buffer.add_char buf 'F';
    Varint.write_uint buf reason
  | Prepare -> Buffer.add_char buf 'P'
  | Vote_yes -> Buffer.add_char buf 'Y'
  | Vote_no -> Buffer.add_char buf 'N'
  | Decide_commit -> Buffer.add_char buf 'C'
  | Decide_abort -> Buffer.add_char buf 'A'
  | Status_req -> Buffer.add_char buf 'S'

(* Staging scratch, same discipline as {!Phoebe_wal.Record}: the only
   per-message allocation is the wire copy itself ([Buffer.to_bytes]),
   which models the send buffer handed to the simulated NIC. *)
let body_scratch = Buffer.create 256

(* lint: hot-path *)
let encode t =
  Buffer.clear body_scratch;
  encode_body body_scratch t;
  Buffer.to_bytes body_scratch (* lint: allow hot-path-alloc — the wire copy is the send buffer *)

let size_bytes t =
  Buffer.clear body_scratch;
  encode_body body_scratch t;
  Buffer.length body_scratch

let decode b =
  let gxid, off = Varint.read_int b 0 in
  let src, off = Varint.read_uint b off in
  let dst, off = Varint.read_uint b off in
  let tag = Bytes.get b off in
  let off = off + 1 in
  let payload =
    match tag with
    | 'E' ->
      let proc, off = Varint.read_uint b off in
      let n, off = Varint.read_uint b off in
      let off = ref off in
      let args =
        Array.init n (fun _ ->
            let v, o = Value.decode b !off in
            off := o;
            v)
      in
      Exec { proc; args }
    | 'O' ->
      let n, off = Varint.read_uint b off in
      let off = ref off in
      let results =
        Array.init n (fun _ ->
            let v, o = Value.decode b !off in
            off := o;
            v)
      in
      Exec_ok { results }
    | 'F' ->
      let reason, _ = Varint.read_uint b off in
      Exec_failed { reason }
    | 'P' -> Prepare
    | 'Y' -> Vote_yes
    | 'N' -> Vote_no
    | 'C' -> Decide_commit
    | 'A' -> Decide_abort
    | 'S' -> Status_req
    | c -> Fmt.failwith "Msg.decode: bad tag %C" c
  in
  { gxid; src; dst; payload }

let payload_label = function
  | Exec _ -> "exec"
  | Exec_ok _ -> "exec_ok"
  | Exec_failed _ -> "exec_failed"
  | Prepare -> "prepare"
  | Vote_yes -> "vote_yes"
  | Vote_no -> "vote_no"
  | Decide_commit -> "decide_commit"
  | Decide_abort -> "decide_abort"
  | Status_req -> "status_req"
