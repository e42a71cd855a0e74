(* Record framing: 0xB1 magic, tag byte naming the payload family, u32 LE
   payload length, payload bytes, u32 LE CRC32 of the payload.
   Self-delimiting and torn-tail detectable.  Traces, the WAL and the
   serve protocol all speak only this form; the tag byte tells the
   record families apart. *)

let magic = '\xB1'
let is_binary c = Char.equal c magic

(* magic + tag + u32 length before the payload, u32 crc after. *)
let header_bytes = 6
let trailer_bytes = 4
let overhead = header_bytes + trailer_bytes

let add b ~tag payload =
  if tag < 0 || tag > 0xff then invalid_arg "Frame.add: tag must fit one byte";
  Buffer.add_char b magic;
  Binio.add_u8 b tag;
  Binio.add_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_int32_le b (Crc32.digest payload)

(* Decode one binary frame at [pos] into (tag, payload), reading no
   further than [stop] (default: the end of [s]).  [max] bounds the
   accepted payload length so a corrupted length field on a live socket
   is an error instead of an unbounded wait for more input. *)
let decode ?(max = Stdlib.max_int) ?stop s ~pos : (int * string) Codec.decoded =
  let len = match stop with Some n -> n | None -> String.length s in
  if pos >= len then Incomplete
  else if not (is_binary s.[pos]) then Corrupt "bad magic byte"
  else if pos + header_bytes > len then Incomplete
  else begin
    let tag = Binio.get_u8 s (pos + 1) in
    let plen = Binio.get_u32 s (pos + 2) in
    if plen > max then Corrupt (Printf.sprintf "frame length %d exceeds limit %d" plen max)
    else if pos + header_bytes + plen + trailer_bytes > len then Incomplete
    else begin
      let crc = String.get_int32_le s (pos + header_bytes + plen) in
      if not (Int32.equal crc (Crc32.sub s ~pos:(pos + header_bytes) ~len:plen)) then
        Corrupt "crc mismatch"
      else
        Value
          ( (tag, String.sub s (pos + header_bytes) plen),
            pos + header_bytes + plen + trailer_bytes )
    end
  end
