(* The one reader for trace files.  See trace_file.mli. *)

module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame

type record = Event of Event.t | Span of Span.t

let record_of_frame tag body =
  if tag = Event_codec.frame_tag then
    Result.map (fun e -> Event e) (Event_codec.Binary.of_body body)
  else if tag = Span.frame_tag then Result.map (fun sp -> Span sp) (Span.Binary.of_body body)
  else Error (Printf.sprintf "unknown frame tag %d" tag)

let of_string s =
  let len = String.length s in
  let rec go acc index pos =
    if pos >= len then Ok (List.rev acc)
    else
      let fail msg = Error (Printf.sprintf "record %d: %s" index msg) in
      match Frame.decode s ~pos with
      | Codec.Incomplete -> fail "truncated record"
      | Codec.Corrupt msg -> fail msg
      | Codec.Value ((tag, body), next) -> (
          match record_of_frame tag body with
          | Ok r -> go (r :: acc) (index + 1) next
          | Error msg -> fail msg)
  in
  go [] 0 0

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_string content

let to_json = function Event e -> Event.to_json e | Span sp -> Span.to_json sp

let to_jsonl records =
  let b = Buffer.create 4096 in
  let rec go index = function
    | [] -> Ok (Buffer.contents b)
    | r :: rest -> (
        match to_json r with
        | line ->
            Buffer.add_string b line;
            Buffer.add_char b '\n';
            go (index + 1) rest
        | exception Invalid_argument msg -> Error (Printf.sprintf "record %d: %s" index msg))
  in
  go 0 records
