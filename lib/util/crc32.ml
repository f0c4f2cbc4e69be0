(* Slicing-by-8 (Kounavis and Berry, 2005): table [k] of the eight,
   at [k * 256], advances a byte's contribution past [k] more bytes, so
   one step folds eight bytes with eight lookups. Table 0 is the
   byte-at-a-time table of the IEEE polynomial. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* The little-endian 32-bit word at [i], as a non-negative int. *)
let[@inline] le32 b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then bswap32 w else w) land 0xFFFF_FFFF

let[@inline] at tbl k n = Array.unsafe_get tbl ((k * 256) + n)

(* Tail-recursive with the accumulator as a parameter: a [ref] would be
   a minor allocation per call, and this runs once per WAL record. The
   loads are unchecked: [bytes] checks the range once. *)
let rec crc_bytes tbl b i stop crc =
  if i >= stop then crc
  else
    crc_bytes tbl b (i + 1) stop
      (at tbl 0 ((crc lxor Char.code (Bytes.unsafe_get b i)) land 0xff) lxor (crc lsr 8))

let rec crc_loop tbl b i stop crc =
  if i + 8 > stop then crc_bytes tbl b i stop crc
  else
    let lo = crc lxor le32 b i and hi = le32 b (i + 4) in
    crc_loop tbl b (i + 8) stop
      (at tbl 7 (lo land 0xff)
      lxor at tbl 6 ((lo lsr 8) land 0xff)
      lxor at tbl 5 ((lo lsr 16) land 0xff)
      lxor at tbl 4 (lo lsr 24)
      lxor at tbl 3 (hi land 0xff)
      lxor at tbl 2 ((hi lsr 8) land 0xff)
      lxor at tbl 1 ((hi lsr 16) land 0xff)
      lxor at tbl 0 (hi lsr 24))

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.bytes: range past the bytes";
  crc_loop tables b pos (pos + len) 0xFFFFFFFF lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Module-level header and body scratch: sealing never interleaves
   (single domain, no suspension point inside). The body is staged in
   [stage] to be checksummed, so the image is the one allocation per
   seal; [stage] grows to the largest body sealed so far. *)
let header = Buffer.create 8
let stage = ref Bytes.empty

let seal body =
  let len = Buffer.length body in
  if Bytes.length !stage < len then stage := Bytes.create len;
  let staged = !stage in
  Buffer.blit body 0 staged 0 len;
  Buffer.clear header;
  Varint.write_uint header (bytes staged ~pos:0 ~len);
  let h = Buffer.length header in
  let image = Bytes.create (h + len) in
  Buffer.blit header 0 image 0 h;
  Bytes.blit staged 0 image h len;
  image

let unseal image =
  let crc, off = Varint.read_uint image 0 in
  if crc <> bytes image ~pos:off ~len:(Bytes.length image - off) then
    failwith "Crc32.unseal: checksum mismatch";
  off
