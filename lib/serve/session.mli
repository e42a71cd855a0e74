(** Per-connection protocol state.

    A session owns one connection's incremental {!Frame.decoder} and its
    pending output bytes; it is a pure byte-in / byte-out state machine —
    the {!Daemon} does the socket I/O, tests can drive a session from
    strings.  Frame-level errors poison the connection (framing cannot
    resynchronize): the session reports one final error response to send
    and {!want_close} turns true.  Payload-level errors (malformed
    payload, bad version, unknown verb) are per-request: the peer gets a
    typed error response and the connection keeps going. *)

type t

val create : ?max_frame:int -> ?timed:bool -> id:int -> unit -> t
(** With [timed] (default off), {!next} measures its frame-decode and
    protocol-parse phases for {!stage_ns}. *)

val id : t -> int

(** {2 Input} *)

val feed : t -> string -> unit
(** Raw bytes read from the wire. *)

type incoming =
  | Request of Protocol.request
  | Undecodable of Protocol.response
      (** a complete frame whose payload did not decode; send the error
          response, keep the connection *)
  | Broken of Protocol.response
      (** the frame stream itself is corrupt; send the error response,
          then close ({!want_close} is now true) *)

val next : t -> incoming option
(** The next complete message, [None] when more bytes are needed.  Call
    repeatedly after each {!feed} until [None]. *)

val stage_ns : t -> float * float
(** [(decode_ns, parse_ns)] of the most recent completed message — the
    frame-decode and payload-parse durations the trace span records as
    its first two stages.  Only meaningful right after {!next} returned
    [Some _] on a [timed] session; [(0., 0.)] otherwise. *)

(** {2 Output} *)

val queue : t -> Protocol.response -> unit
(** Encode, frame, and append to the pending output. *)

val pending : t -> bool

val write_out : t -> (Bytes.t -> int -> int -> int) -> unit
(** [write_out t w] offers the pending output to [w buf off len], which
    returns how many of those bytes reached the wire; they are dropped
    from the pending output.  An exception from [w] propagates and
    consumes nothing. *)

val want_close : t -> bool
(** Close once the pending output has drained. *)

(** {2 Accounting} *)

val frames_in : t -> int
val responses_out : t -> int
