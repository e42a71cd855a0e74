type t = { emit : Event.t -> unit; flush : unit -> unit }

let noop = { emit = (fun _ -> ()); flush = (fun () -> ()) }

(* Binary-framed trace sink.  One scratch buffer is reused across events
   so steady-state emission allocates only the event payload itself. *)
let binary oc =
  let scratch = Buffer.create 256 in
  {
    emit =
      (fun ev ->
        Buffer.clear scratch;
        Event_codec.Binary.encode scratch ev;
        Buffer.output_buffer oc scratch);
    flush = (fun () -> flush oc);
  }

let binary_buffer buf =
  { emit = (fun ev -> Event_codec.Binary.encode buf ev); flush = (fun () -> ()) }

let pretty oc =
  let ppf = Format.formatter_of_out_channel oc in
  {
    emit = (fun ev -> Format.fprintf ppf "%a@." Event.pp ev);
    flush = (fun () -> Format.pp_print_flush ppf ());
  }

let tee a b =
  {
    emit =
      (fun ev ->
        a.emit ev;
        b.emit ev);
    flush =
      (fun () ->
        a.flush ();
        b.flush ());
  }

type ring = { capacity : int; q : Event.t Queue.t; mutable dropped : int }

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  { capacity; q = Queue.create (); dropped = 0 }

let ring_sink r =
  {
    emit =
      (fun ev ->
        if Queue.length r.q >= r.capacity then begin
          ignore (Queue.pop r.q);
          r.dropped <- r.dropped + 1
        end;
        Queue.push ev r.q);
    flush = (fun () -> ());
  }

let ring_events r = List.of_seq (Queue.to_seq r.q)
let ring_dropped r = r.dropped
