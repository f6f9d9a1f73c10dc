(** Low-level byte codec for the [raceguard-trace/2] container:
    LEB128 varints, zigzag signed ints, length-prefixed strings, fixed
    32-bit little-endian words, and CRC-32 (IEEE 802.3, the zlib
    polynomial) for the footer guard.

    Everything encodes into a [Buffer.t] and decodes from an immutable
    [string] through a {!cursor}; decoding past the end raises
    {!Truncated}, which the reader turns into a parse error — a
    truncated download is indistinguishable from a cut-off write, and
    both must be rejected, not silently half-read.  A varint too long
    or too large for a non-negative [int] raises {!Overflow}: read
    back, it would wrap negative. *)

exception Truncated
exception Overflow

type cursor = { data : string; mutable pos : int; limit : int }

let cursor ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> String.length data in
  if pos < 0 || limit > String.length data || pos > limit then
    invalid_arg "Codec.cursor: bad bounds";
  { data; pos; limit }

let remaining c = c.limit - c.pos
let at_end c = c.pos >= c.limit

(* [cursor] keeps [limit] within [data], so a read below [limit] needs
   no second bounds check *)
let read_byte c =
  let pos = c.pos in
  if pos >= c.limit then raise Truncated;
  c.pos <- pos + 1;
  Char.code (String.unsafe_get c.data pos)

(* --- varints ------------------------------------------------------- *)

(* allocation-free: this runs ~10 times per recorded event, so no ref
   cells and no bounds check on the already-masked byte *)
let rec write_varint_loop buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7F lor 0x80));
    write_varint_loop buf (n lsr 7)
  end

let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  write_varint_loop buf n

(* [max_int] has [Sys.int_size - 1] bits: its last varint byte sits at
   [varint_last_shift] and holds the bits left over, so a larger last
   byte (a continuation bit included) encodes no non-negative [int] *)
let varint_last_shift = 7 * ((Sys.int_size - 2) / 7)
let varint_last_max = (1 lsl (Sys.int_size - 1 - varint_last_shift)) - 1

(* top-level, so that a read allocates no closure; it runs ~10 times
   per decoded event *)
let rec read_varint_loop c shift acc =
  let b = read_byte c in
  if shift = varint_last_shift && b > varint_last_max then raise Overflow;
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else read_varint_loop c (shift + 7) acc

let read_varint c = read_varint_loop c 0 0

(* zigzag: signed ints of small magnitude stay small *)
let write_zigzag buf n = write_varint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
let read_zigzag c =
  let z = read_varint c in
  (z lsr 1) lxor (-(z land 1))

let write_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')
let read_bool c = read_byte c <> 0

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string c =
  let n = read_varint c in
  if n < 0 || remaining c < n then raise Truncated;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* --- fixed-width ---------------------------------------------------- *)

let read_u32_at data pos =
  if pos < 0 || pos + 4 > String.length data then raise Truncated;
  let b i = Char.code data.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* --- CRC-32 --------------------------------------------------------- *)

(* Slicing-by-8: table [k] (entries [256k .. 256k+255]) advances the
   CRC of one byte by [k] more zero bytes, so eight bytes fold in with
   eight independent lookups instead of eight dependent ones.  Built
   when the module loads, not lazily: domains that seal recordings at
   the same moment would force a [lazy] concurrently, which raises
   [CamlinternalLazy.Undefined]. *)
let crc_table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xFF)
    done
  done;
  t

(** CRC-32 of [data.[pos .. pos+len-1]] as a non-negative int. *)
let crc32_bytes ?(crc = 0) data pos len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then invalid_arg "Codec.crc32: bad bounds";
  (* the bounds were checked once above, so every read below is in
     them; [c] stays within 32 bits, so every table index is in the table *)
  let t = crc_table in
  let c = ref (crc lxor 0xFFFFFFFF land 0xFFFFFFFF) and i = ref pos and stop = pos + len in
  while stop - !i >= 8 do
    let p = !i in
    let x =
      !c
      lxor (Char.code (Bytes.unsafe_get data p)
           lor (Char.code (Bytes.unsafe_get data (p + 1)) lsl 8)
           lor (Char.code (Bytes.unsafe_get data (p + 2)) lsl 16)
           lor (Char.code (Bytes.unsafe_get data (p + 3)) lsl 24))
    in
    c :=
      Array.unsafe_get t (0x700 + (x land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (x lsr 24))
      lxor Array.unsafe_get t (0x300 + Char.code (Bytes.unsafe_get data (p + 4)))
      lxor Array.unsafe_get t (0x200 + Char.code (Bytes.unsafe_get data (p + 5)))
      lxor Array.unsafe_get t (0x100 + Char.code (Bytes.unsafe_get data (p + 6)))
      lxor Array.unsafe_get t (Char.code (Bytes.unsafe_get data (p + 7)));
    i := p + 8
  done;
  for p = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get data p)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(** The same over a string; [crc] continues an earlier CRC. *)
let crc32 ?crc data pos len = crc32_bytes ?crc (Bytes.unsafe_of_string data) pos len
