(* Binary framing of the serve protocol.  See frame.mli. *)

module Wire_frame = Gridbw_wire.Frame
module Codec = Gridbw_wire.Codec
module Binio = Gridbw_wire.Binio

type error = Oversized of int | Corrupt_frame of string

let describe = function
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Corrupt_frame what -> "corrupt frame: " ^ what

let max_frame_default = 1024 * 1024

(* Frame tag for serve-protocol payloads; the event codec owns 0x01, the
   WAL 0x02 and spans 0x04. *)
let tag = 0x03

let encode_binary payload =
  let b = Buffer.create (String.length payload + Wire_frame.overhead) in
  Wire_frame.add b ~tag payload;
  Buffer.contents b

let foreign_tag t = Corrupt_frame (Printf.sprintf "unexpected frame tag %d" t)

type decoder = { max_frame : int; q : Byteq.t; mutable err : error option }

let decoder ?(max_frame = max_frame_default) () =
  { max_frame; q = Byteq.create 4096; err = None }

let feed d s = Byteq.add_string d.q s
let buffered d = Byteq.length d.q

let fail d e =
  d.err <- Some e;
  Error e

let next d =
  match d.err with
  | Some e -> Error e
  | None -> (
      let buf, pos = Byteq.view d.q in
      let stop = pos + Byteq.length d.q in
      (* [s] aliases the queue only for this decode, which copies the
         payload out before the next [feed] can touch the bytes. *)
      let s = Bytes.unsafe_to_string buf in
      let plen = if stop - pos >= Wire_frame.header_bytes then Binio.get_u32 s (pos + 2) else 0 in
      if plen > d.max_frame && Wire_frame.is_binary s.[pos] then fail d (Oversized plen)
      else
        match Wire_frame.decode ~stop s ~pos with
        | Codec.Incomplete -> Ok None
        | Codec.Corrupt msg -> fail d (Corrupt_frame msg)
        | Codec.Value ((t, _), _) when t <> tag -> fail d (foreign_tag t)
        | Codec.Value ((_, payload), next) ->
            Byteq.drop d.q (next - pos);
            Ok (Some payload))

(* --- blocking channel helpers (the loadgen / test client side) --- *)

let input ?(max_frame = max_frame_default) ic =
  match really_input_string ic Wire_frame.header_bytes with
  | exception End_of_file -> Error `Eof
  | header -> (
      if not (Wire_frame.is_binary header.[0]) then Error (`Frame (Corrupt_frame "bad magic byte"))
      else
        let plen = Binio.get_u32 header 2 in
        if plen > max_frame then Error (`Frame (Oversized plen))
        else
          match really_input_string ic (plen + Wire_frame.trailer_bytes) with
          | exception End_of_file -> Error `Eof
          | tail -> (
              match Wire_frame.decode (header ^ tail) ~pos:0 with
              | Codec.Value ((t, _), _) when t <> tag -> Error (`Frame (foreign_tag t))
              | Codec.Value ((_, payload), _) -> Ok payload
              | Codec.Corrupt msg -> Error (`Frame (Corrupt_frame msg))
              | Codec.Incomplete -> Error `Eof))

let output oc payload =
  output_string oc (encode_binary payload);
  flush oc
