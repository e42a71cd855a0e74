(** Framing for the [gridbw serve] wire protocol: every payload travels
    in the binary frame of {!Gridbw_wire.Frame}, under tag 0x03.

    {v
    byte 0        0xB1 magic
    byte 1        0x03 tag (serve protocol)
    bytes 2..5    u32 LE payload length
    bytes 6..     payload ({!Protocol})
    last 4 bytes  u32 LE CRC32 of the payload
    v}

    A stream is a plain concatenation of frames; there is no handshake
    and no other form.  Decoding is incremental and total: {!feed} bytes
    as they arrive, {!next} yields complete payloads or a typed {!error}
    — malformed input (a wrong first byte, a bad CRC, a foreign tag, a
    length over [max_frame]) never raises. *)

type error =
  | Oversized of int  (** declared payload length exceeds [max_frame] *)
  | Corrupt_frame of string
      (** bad magic byte, CRC mismatch, or an unexpected tag *)

val describe : error -> string

val max_frame_default : int
(** 1 MiB. *)

val encode_binary : string -> string
(** The framed bytes for one payload. *)

(** {2 Incremental decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder

val feed : decoder -> string -> unit
(** Append raw bytes from the wire.  Amortized linear: consumed bytes are
    dropped once per call, not once per frame. *)

val next : decoder -> (string option, error) result
(** [Ok (Some payload)] — one complete frame consumed; [Ok None] — more
    bytes needed; [Error _] — the stream is broken (the decoder stays
    broken: framing errors are not recoverable). *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by {!next}. *)

(** {2 Blocking helpers (client side)} *)

val input : ?max_frame:int -> in_channel -> (string, [ `Frame of error | `Eof ]) result
(** Read exactly one frame from a blocking channel. *)

val output : out_channel -> string -> unit
(** Write one framed payload and flush the channel. *)
