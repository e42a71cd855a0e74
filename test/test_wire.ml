(* lib/wire: every event constructor round-trips through the binary
   codec and through its JSON view (snapshots depend on the latter), plus
   frame-level corruption detection, truncation handling, and the trace
   reader and JSON export of mixed event/span trace files. *)

open Helpers
module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame
module Crc32 = Gridbw_wire.Crc32
module Event = Gridbw_obs.Event
module Event_codec = Gridbw_obs.Event_codec
module Span = Gridbw_obs.Span
module Trace_file = Gridbw_obs.Trace_file
module Json = Gridbw_obs.Json

(* %.17g is injective on finite floats (17 significant digits
   round-trip), so JSON text equality is event equality. *)
let event_eq a b = Event.to_json a = Event.to_json b

let pp_event fmt e = Format.pp_print_string fmt (Event.to_json e)
let event_testable = Alcotest.testable pp_event event_eq

(* --- generators --- *)

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.) float;
        float_range (-1e6) 1e6;
        oneofl [ 0.; -0.; 1e-300; 1e300; 4910.25 ];
      ])

let gen_id = QCheck2.Gen.int_range 0 1_000_000
let gen_side = QCheck2.Gen.oneofl [ Event.Ingress; Event.Egress ]

let gen_reason =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 24))

let gen_triples =
  QCheck2.Gen.(array_size (int_range 0 3) (triple gen_float gen_float gen_float))

let gen_event =
  let open QCheck2.Gen in
  let* k = int_range 1 8 in
  match k with
  | 1 ->
      let* time = gen_float and* seq = gen_id and* id = gen_id in
      let* ingress = gen_id and* egress = gen_id in
      let* volume = gen_float and* ts = gen_float and* tf = gen_float in
      let* max_rate = gen_float in
      return (Event.Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate })
  | 2 ->
      let* time = gen_float and* id = gen_id in
      let* ingress = gen_id and* egress = gen_id in
      let* volume = gen_float and* ts = gen_float and* tf = gen_float in
      let* max_rate = gen_float and* bw = gen_float and* sigma = gen_float in
      let* shard = option gen_id in
      return (Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; shard })
  | 3 ->
      let* time = gen_float and* id = gen_id and* reason = gen_reason in
      let* port = option (pair gen_side gen_id) in
      let* headroom = option gen_float in
      let* shard = option gen_id in
      return (Event.Reject { time; id; reason; port; headroom; shard })
  | 4 ->
      let* time = gen_float and* id = gen_id and* bw = gen_float in
      let* shard = option gen_id in
      return (Event.Preempt { time; id; bw; shard })
  | 5 ->
      let* time = gen_float and* side = gen_side and* port = gen_id in
      let* excess = gen_float and* victims = gen_id in
      return (Event.Shed { time; side; port; excess; victims })
  | 6 ->
      let* time = gen_float and* side = gen_side and* port = gen_id in
      let* capacity = gen_float in
      return (Event.Capacity { time; side; port; capacity })
  | 7 ->
      let* time = gen_float and* id = gen_id in
      let* ingress = gen_id and* egress = gen_id in
      let* volume = gen_float and* ts = gen_float and* tf = gen_float in
      let* max_rate = gen_float and* profile = gen_triples in
      let* revised = array_size (int_range 0 2) (pair gen_id gen_triples) in
      let* shard = option gen_id in
      return
        (Event.Reshape
           { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised; shard })
  | _ ->
      let* time = gen_float and* pending = gen_id in
      return (Event.Dispatch { time; pending })

(* One fixed exemplar per constructor, so every constructor is pinned
   even if a qcheck run draws unevenly. *)
let exemplars =
  [
    Event.Arrival
      { time = 1.5; seq = 0; id = 7; ingress = 1; egress = 2; volume = 100.;
        ts = 0.; tf = 10.; max_rate = 12.5 };
    Event.Accept
      { time = 2.; id = 7; ingress = 1; egress = 2; volume = 100.; ts = 0.;
        tf = 10.; max_rate = 12.5; bw = 10.; sigma = 2.; shard = None };
    Event.Accept
      { time = 2.5; id = 11; ingress = 1; egress = 2; volume = 10.; ts = 0.;
        tf = 10.; max_rate = 12.5; bw = 2.; sigma = 2.5; shard = Some 2 };
    Event.Reject
      { time = 3.; id = 8; reason = "spike"; port = Some (Event.Egress, 4);
        headroom = Some 0.25; shard = Some 0 };
    Event.Reject
      { time = 3.5; id = 9; reason = "deadline"; port = None; headroom = None; shard = None };
    Event.Preempt { time = 4.; id = 7; bw = 10.; shard = Some 1 };
    Event.Reshape
      { time = 4.5; id = 12; ingress = 0; egress = 1; volume = 30.; ts = 4.5; tf = 20.;
        max_rate = 10.; profile = [| (5., 8., 10.) |];
        revised = [| (11, [| (2.5, 4.5, 2.); (8., 12., 1.5) |]) |]; shard = None };
    Event.Shed { time = 5.; side = Event.Ingress; port = 0; excess = 12.; victims = 2 };
    Event.Capacity { time = 0.; side = Event.Egress; port = 3; capacity = 100. };
    Event.Dispatch { time = 6.; pending = 11 };
  ]

(* --- codec round-trips --- *)

let roundtrip (module C : Codec.S with type t = Event.t) ev =
  match Codec.of_string (module C) (Codec.to_string (module C) ev) with
  | Ok ev' -> ev'
  | Error msg -> Alcotest.failf "%s: %s" C.name msg

let test_exemplar_roundtrips () =
  List.iter
    (fun ev ->
      Alcotest.check event_testable "binary round-trip" ev
        (roundtrip (module Event_codec.Binary) ev);
      match Event.of_line (Event.to_json ev) with
      | Ok ev' -> Alcotest.check event_testable "json round-trip" ev ev'
      | Error msg -> Alcotest.failf "json: %s" msg)
    exemplars

(* --- frame-level corruption and truncation --- *)

let prop_bitflip_never_passes =
  qcase ~count:300 "wire: a flipped byte never decodes back to the event"
    QCheck2.Gen.(pair gen_event (int_range 0 10_000))
    (fun (ev, raw) ->
      let s = Codec.to_string (module Event_codec.Binary) ev in
      let i = raw mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      match Event_codec.Binary.decode (Bytes.to_string b) ~pos:0 with
      | Codec.Value (ev', _) -> not (event_eq ev' ev)
      | Codec.Incomplete | Codec.Corrupt _ -> true)

let prop_truncation_is_incomplete =
  qcase ~count:300 "wire: every strict prefix of a binary frame is Incomplete"
    QCheck2.Gen.(pair gen_event (int_range 0 10_000))
    (fun (ev, raw) ->
      let s = Codec.to_string (module Event_codec.Binary) ev in
      let n = raw mod String.length s in
      match Event_codec.Binary.decode (String.sub s 0 n) ~pos:0 with
      | Codec.Incomplete -> true
      | Codec.Value _ | Codec.Corrupt _ -> false)

let test_frame_tag_validation () =
  let b = Buffer.create 32 in
  Frame.add b ~tag:0x7f "payload";
  let s = Buffer.contents b in
  (match Frame.decode s ~pos:0 with
  | Codec.Value ((tag, payload), next) ->
      Alcotest.(check int) "tag survives" 0x7f tag;
      Alcotest.(check string) "payload survives" "payload" payload;
      Alcotest.(check int) "frame size" (String.length s) next
  | _ -> Alcotest.fail "frame does not decode");
  (* bytes past [stop] are not there yet *)
  Alcotest.(check bool) "stop bounds the read" true
    (Frame.decode ~stop:(String.length s - 1) (s ^ "x") ~pos:0 = Codec.Incomplete);
  (* An event decoder must refuse a frame with someone else's tag. *)
  match Event_codec.Binary.decode s ~pos:0 with
  | Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "wrong-tag frame accepted as an event"

(* --- trace files: the shared reader and the JSON export --- *)

let gen_span =
  let open QCheck2.Gen in
  let* id = gen_id and* conn = gen_id and* req = option gen_id in
  let* time = gen_float and* total_ns = gen_float and* probes = gen_id in
  let* durs = array_size (return (List.length Span.all_stages)) gen_float in
  return (Span.make ~id ~conn ~req ~time ~total_ns ~probes ~durs)

let gen_record =
  QCheck2.Gen.(
    oneof
      [
        map (fun e -> Trace_file.Event e) gen_event;
        map (fun sp -> Trace_file.Span sp) gen_span;
      ])

let frame_of = function
  | Trace_file.Event e -> Codec.to_string (module Event_codec.Binary) e
  | Trace_file.Span sp -> Codec.to_string (module Span.Binary) sp

let export s = Result.bind (Trace_file.of_string s) Trace_file.to_jsonl

let json_line_matches record line =
  match record with
  | Trace_file.Event e -> (
      match Event.of_line line with Ok e' -> event_eq e e' | Error _ -> false)
  | Trace_file.Span sp -> (
      match Json.parse line with
      | Error _ -> false
      | Ok j ->
          Json.member "ev" j = Some (Json.Str "span")
          && Option.bind (Json.member "id" j) Json.to_int = Some (Span.id sp)
          && Option.equal Float.equal
               (Option.bind (Json.member "total_ns" j) Json.to_float)
               (Some (Span.total_ns sp)))

let prop_export_round_trip =
  qcase ~count:300 "export: one JSON line per event and span record"
    QCheck2.Gen.(list_size (int_range 0 20) gen_record)
    (fun records ->
      match export (String.concat "" (List.map frame_of records)) with
      | Error msg -> QCheck2.Test.fail_reportf "export failed: %s" msg
      | Ok out -> (
          match List.rev (String.split_on_char '\n' out) with
          | "" :: rev_lines ->
              let lines = List.rev rev_lines in
              List.length lines = List.length records
              && List.for_all2 json_line_matches records lines
          | _ -> out = "" && records = []))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* Damage one record, chosen by a byte offset: cut the trace strictly
   inside it, or flip one of its bits.  Every record before it is intact,
   so the error must name exactly its index. *)
let prop_export_damage_names_record =
  qcase ~count:500 "export: a damaged record is an error naming its index"
    QCheck2.Gen.(triple (list_size (int_range 1 12) gen_record) (int_range 0 1_000_000) bool)
    (fun (records, raw, truncate) ->
      let frames = List.map frame_of records in
      let s = String.concat "" frames in
      let pos = raw mod String.length s in
      let rec locate k start = function
        | f :: rest when pos >= start + String.length f -> locate (k + 1) (start + String.length f) rest
        | _ -> (k, start)
      in
      let k, start = locate 0 0 frames in
      let damaged =
        if truncate then String.sub s 0 (if pos > start then pos else start + 1)
        else begin
          let b = Bytes.of_string s in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (raw mod 8))));
          Bytes.to_string b
        end
      in
      match export damaged with
      | Ok _ -> false
      | Error msg -> contains ~affix:(Printf.sprintf "record %d:" k) msg)

let suites =
  [
    ( "wire",
      [
        case "every constructor round-trips through both codecs" test_exemplar_roundtrips;
        prop_bitflip_never_passes;
        prop_truncation_is_incomplete;
        case "frame: tag byte validated by record codecs" test_frame_tag_validation;
        prop_export_round_trip;
        prop_export_damage_names_record;
      ] );
  ]
