let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
         done;
         !c))

(* Tail-recursive with the accumulator as a parameter: a [ref] would be
   a minor allocation per call, and this runs once per WAL record. *)
let rec crc_loop table b i stop crc =
  if i >= stop then crc
  else crc_loop table b (i + 1) stop (table.((crc lxor Char.code (Bytes.get b i)) land 0xff) lxor (crc lsr 8))

let bytes b ~pos ~len =
  let table = Lazy.force table in
  crc_loop table b pos (pos + len) 0xFFFFFFFF lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Module-level header scratch: sealing never interleaves (single
   domain, no suspension point inside). *)
let header = Buffer.create 8

let seal body =
  let body = Buffer.to_bytes body in
  let len = Bytes.length body in
  Buffer.clear header;
  Varint.write_uint header (bytes body ~pos:0 ~len);
  let h = Buffer.length header in
  let image = Bytes.create (h + len) in
  Buffer.blit header 0 image 0 h;
  Bytes.blit body 0 image h len;
  image

let unseal image =
  let crc, off = Varint.read_uint image 0 in
  if crc <> bytes image ~pos:off ~len:(Bytes.length image - off) then
    failwith "Crc32.unseal: checksum mismatch";
  off
