(** Trace files: the binary records [gridbw run --trace-out] (events)
    and [gridbw serve --span-out] (spans) write, read back by one
    tag-dispatching reader.  [replay-trace], [trace-report] and
    [export] all decode through it.

    A trace is a sequence of {!Gridbw_wire.Frame} binary frames: event
    records under tag 0x01 ({!Event_codec.frame_tag}), span records
    under tag 0x04 ({!Span.frame_tag}).  JSON exists only as the
    {!to_jsonl} view that [gridbw export] prints. *)

type record = Event of Event.t | Span of Span.t

val of_string : string -> (record list, string) result
(** Every record of a trace file's contents, in file order.  The first
    truncated, corrupt or unknown-tag record is an
    [Error "record N: reason"], [N] its 0-based index; a bad record
    never yields a partial list. *)

val load : string -> (record list, string) result
(** {!of_string} over a whole file; an I/O failure is an [Error] too. *)

val to_jsonl : record list -> (string, string) result
(** One JSON object per line, in order: {!Event.to_json} for events,
    {!Span.to_json} for spans.  A record holding a number JSON cannot
    carry (a non-finite float) fails the whole rendering with an error
    naming its index. *)
