(* Record framing, two ways:

   - binary: 0xB1 magic, version/kind tag byte, u32 LE payload length,
     payload bytes, u32 LE CRC32 of the payload.  Self-delimiting,
     newline-safe, torn-tail detectable.  The serve protocol speaks only
     this form.
   - [Hexline]: the JSONL WAL's "%08x %d %s\n" CRC-framed line.

   The magic byte 0xB1 is not printable ASCII, so the first byte of a
   journal or trace record distinguishes the two: '{' or a hex digit
   opens a text form, 0xB1 opens a binary frame.  Journals and traces may
   mix records freely and their readers sniff per record. *)

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

(* "%08x %d %s\n": CRC32 in hex, payload length, payload, newline.  The
   JSONL WAL's historical frame, kept byte-identical so existing
   journals replay unchanged. *)
module Hexline = struct
  type t = string

  let name = "hexline"

  let encode b payload =
    if String.contains payload '\n' then invalid_arg "Hexline.encode: payload contains a newline";
    let hex = "0123456789abcdef" in
    let crc = Int32.to_int (Crc32.digest payload) land 0xFFFFFFFF in
    for i = 7 downto 0 do
      Buffer.add_char b hex.[(crc lsr (4 * i)) land 0xf]
    done;
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int (String.length payload));
    Buffer.add_char b ' ';
    Buffer.add_string b payload;
    Buffer.add_char b '\n'

  (* [line] is one record without its trailing newline. *)
  let parse_frame line =
    match String.index_opt line ' ' with
    | None -> Error "missing crc field"
    | Some i -> (
        match String.index_from_opt line (i + 1) ' ' with
        | None -> Error "missing length field"
        | Some j -> (
            let crc_hex = String.sub line 0 i in
            let len_s = String.sub line (i + 1) (j - i - 1) in
            match (Int32.of_string_opt ("0x" ^ crc_hex), int_of_string_opt len_s) with
            | None, _ -> Error "malformed crc"
            | _, None -> Error "malformed length"
            | Some crc, Some len ->
                let start = j + 1 in
                if String.length line - start <> len then Error "length mismatch"
                else
                  let payload = String.sub line start len in
                  if Crc32.digest payload <> crc then Error "crc mismatch" else Ok payload))

  let decode s ~pos : t Codec.decoded =
    match String.index_from_opt s pos '\n' with
    | None -> Incomplete
    | Some nl -> (
        match parse_frame (String.sub s pos (nl - pos)) with
        | Ok payload -> Value (payload, nl + 1)
        | Error msg -> Corrupt msg)
end
