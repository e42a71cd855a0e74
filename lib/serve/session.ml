(* Per-connection protocol state.  See session.mli. *)

module Span = Gridbw_obs.Span

type t = {
  id : int;
  decoder : Frame.decoder;
  timed : bool;
  out : Byteq.t;  (* framed responses not yet on the wire *)
  mutable closing : bool;
  mutable frames_in : int;
  mutable responses_out : int;
  (* Stage durations of the most recent completed message (valid right
     after [next] returns [Some _] with [timed]). *)
  mutable decode_ns : float;
  mutable parse_ns : float;
}

let create ?max_frame ?(timed = false) ~id () =
  {
    id;
    decoder = Frame.decoder ?max_frame ();
    timed;
    out = Byteq.create 4096;
    closing = false;
    frames_in = 0;
    responses_out = 0;
    decode_ns = 0.;
    parse_ns = 0.;
  }

let id t = t.id
let feed t s = Frame.feed t.decoder s

type incoming =
  | Request of Protocol.request
  | Undecodable of Protocol.response
  | Broken of Protocol.response

let next t =
  if t.closing then None
  else
    let t0 = if t.timed then Span.now_ns () else 0. in
    match Frame.next t.decoder with
    | Ok None -> None
    | Ok (Some payload) -> (
        let t1 = if t.timed then Span.now_ns () else 0. in
        if t.timed then t.decode_ns <- t1 -. t0;
        t.frames_in <- t.frames_in + 1;
        let decoded = Protocol.decode_request payload in
        if t.timed then t.parse_ns <- Span.now_ns () -. t1;
        match decoded with
        | Ok r -> Some (Request r)
        | Error e -> Some (Undecodable (Protocol.error_of_decode e)))
    | Error e ->
        t.closing <- true;
        Some
          (Broken
             (Protocol.Error { code = Protocol.Bad_frame; message = Frame.describe e }))

let queue t resp =
  t.responses_out <- t.responses_out + 1;
  Byteq.add_string t.out (Frame.encode_binary (Protocol.encode_response resp))

let pending t = Byteq.length t.out > 0

let write_out t w =
  let buf, pos = Byteq.view t.out in
  let n = w buf pos (Byteq.length t.out) in
  if n > 0 then Byteq.drop t.out n

let stage_ns t = (t.decode_ns, t.parse_ns)
let want_close t = t.closing
let frames_in t = t.frames_in
let responses_out t = t.responses_out
