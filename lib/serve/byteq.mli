(** A growable byte queue: appended at the tail, consumed from the head.
    Consumed bytes are dropped lazily: when an append needs room, the
    live bytes are compacted to the front if they fill at most half the
    buffer, and moved to a buffer twice as large otherwise.  So a stream
    of appends and drops costs time linear in the bytes that pass
    through, even when a slow reader keeps the queue nearly full. *)

type t

val create : int -> t
(** An empty queue with the given initial capacity. *)

val length : t -> int
(** Bytes appended and not yet dropped. *)

val add_string : t -> string -> unit

val view : t -> Bytes.t * int
(** [(buf, pos)]: the queued bytes are [buf.[pos .. pos + length t)].
    Valid until the next append. *)

val drop : t -> int -> unit
(** Consume [n <= length t] bytes from the head. *)
