(** Versioned wire protocol of the admission daemon.

    Every request and response is one binary payload, carried by one
    {!Frame}.  A payload is:

    {v
    byte 0      u8   protocol version (2)
    byte 1      u8   tag: the verb (requests) or response kind
    byte 2..    fixed-width little-endian fields, in declaration order
    v}

    Ints travel as [i64], floats as their IEEE 754 bits ([f64]), so every
    float round-trips bit-exactly (-0., infinities and NaN payloads
    included); strings (reasons, messages, the stats text) as a [u32]
    byte length followed by the bytes.  Byte tables per verb:

    {v
    request   tag   fields after the tag                   bytes
    admit     0x01  id ingress egress : i64,
                    volume ts tf max_rate : f64            58
    query     0x02  id : i64                               10
    cancel    0x03  id : i64                               10
    stats     0x04  -                                       2
    shutdown  0x05  -                                       2

    response       tag   fields after the tag
    admitted       0x81  id : i64, bw sigma tau : f64
    rejected       0x82  id : i64, reason : str
    status         0x83  id : i64, state : u8, then by state
                         0 unknown | 1 active, 2 done: bw sigma tau : f64
                         | 3 rejected: reason : str | 4 cancelled
    cancelled      0x84  id : i64
    cancel-failed  0x85  id : i64, reason : str
    stats          0x86  prometheus text : str
    goodbye        0x87  records : i64
    error          0x88  code : u8 (0 bad-frame, 1 bad-payload,
                         2 bad-version, 3 bad-request, 4 overloaded),
                         message : str
    v}

    A daemon refuses versions it does not speak with a typed error
    instead of guessing; a version-1 JSON payload opens with ['{']
    (0x7B) and decodes as [Bad_version_e 123].  Five verbs: [admit]
    (decide a request — the response is sent only after the decision is
    durable), [query] (look up a decision), [cancel] (preempt a
    still-active admission), [stats] (Prometheus text dump of the
    daemon's registry), [shutdown] (graceful drain).

    Responses on one connection are sent in request order, so clients may
    pipeline.  Decoding is total: every read is bounds-checked, and a
    short payload, trailing bytes, an unknown tag or an out-of-range
    field yield {!decode_error}, never an exception. *)

val version : int

type request =
  | Admit of {
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
    }
  | Query of { id : int }
  | Cancel of { id : int }
  | Stats
  | Shutdown

(** What the daemon knows about a request id. *)
type disposition =
  | Unknown
  | Active of { bw : float; sigma : float; tau : float }  (** admitted, still transmitting *)
  | Done of { bw : float; sigma : float; tau : float }  (** admitted, transfer finished *)
  | Refused of { reason : string }
  | Cancelled

type error_code =
  | Bad_frame
  | Bad_json  (** the payload is malformed *)
  | Bad_version
  | Bad_request
  | Overloaded  (** the daemon is at its connection limit *)

type response =
  | Admitted of { id : int; bw : float; sigma : float; tau : float }
  | Rejected of { id : int; reason : string }
  | Status of { id : int; disposition : disposition }
  | Cancel_ok of { id : int }
  | Cancel_failed of { id : int; reason : string }
  | Stats_text of string  (** Prometheus text exposition *)
  | Goodbye of { records : int }  (** shutdown acknowledged; journal record count *)
  | Error of { code : error_code; message : string }

type decode_error =
  | Bad_json_e of string  (** payload malformed: empty, truncated, or a field out of range *)
  | Bad_version_e of int  (** a version this implementation does not speak *)
  | Bad_request_e of string  (** unknown tag, or trailing bytes after the fields *)

val describe_decode_error : decode_error -> string
val error_of_decode : decode_error -> response
(** The error response a daemon sends back for an undecodable request. *)

val code_name : error_code -> string

val encode_request : request -> string
(** The binary payload (frame it with {!Frame.encode_binary} to put on
    the wire). *)

val decode_request : string -> (request, decode_error) result

val encode_response : response -> string
val decode_response : string -> (response, decode_error) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
