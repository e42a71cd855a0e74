(* Binary wire codec for the admission daemon.  See protocol.mli for the
   byte layout of every verb. *)

module Binio = Gridbw_wire.Binio

let version = 2

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

type disposition =
  | Unknown
  | Active of { bw : float; sigma : float; tau : float }
  | Done of { bw : float; sigma : float; tau : float }
  | Refused of { reason : string }
  | Cancelled

type error_code = Bad_frame | Bad_json | Bad_version | Bad_request | Overloaded

type response =
  | Admitted of { id : int; bw : float; sigma : float; tau : float }
  | Rejected of { id : int; reason : string }
  | Status of { id : int; disposition : disposition }
  | Cancel_ok of { id : int }
  | Cancel_failed of { id : int; reason : string }
  | Stats_text of string
  | Goodbye of { records : int }
  | Error of { code : error_code; message : string }

type decode_error = Bad_json_e of string | Bad_version_e of int | Bad_request_e of string

let describe_decode_error = function
  | Bad_json_e msg -> "bad payload: " ^ msg
  | Bad_version_e v -> Printf.sprintf "unsupported protocol version %d (speaking %d)" v version
  | Bad_request_e msg -> "bad request: " ^ msg

let code_name = function
  | Bad_frame -> "bad-frame"
  | Bad_json -> "bad-payload"
  | Bad_version -> "bad-version"
  | Bad_request -> "bad-request"
  | Overloaded -> "overloaded"

let error_of_decode e =
  let code =
    match e with
    | Bad_json_e _ -> Bad_json
    | Bad_version_e _ -> Bad_version
    | Bad_request_e _ -> Bad_request
  in
  Error { code; message = describe_decode_error e }

(* --- encoding --- *)

let encode tag fill =
  let b = Buffer.create 64 in
  Binio.add_u8 b version;
  Binio.add_u8 b tag;
  fill b;
  Buffer.contents b

let encode_request = function
  | Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      encode 0x01 (fun b ->
          List.iter (Binio.add_i64 b) [ id; ingress; egress ];
          List.iter (Binio.add_f64 b) [ volume; ts; tf; max_rate ])
  | Query { id } -> encode 0x02 (fun b -> Binio.add_i64 b id)
  | Cancel { id } -> encode 0x03 (fun b -> Binio.add_i64 b id)
  | Stats -> encode 0x04 ignore
  | Shutdown -> encode 0x05 ignore

(* Error codes by their wire byte. *)
let codes = [| Bad_frame; Bad_json; Bad_version; Bad_request; Overloaded |]

let window b bw sigma tau = List.iter (Binio.add_f64 b) [ bw; sigma; tau ]

let id_and b id s =
  Binio.add_i64 b id;
  Binio.add_str b s

let encode_response = function
  | Admitted { id; bw; sigma; tau } ->
      encode 0x81 (fun b ->
          Binio.add_i64 b id;
          window b bw sigma tau)
  | Rejected { id; reason } -> encode 0x82 (fun b -> id_and b id reason)
  | Status { id; disposition } ->
      encode 0x83 (fun b ->
          Binio.add_i64 b id;
          match disposition with
          | Unknown -> Binio.add_u8 b 0
          | Active { bw; sigma; tau } ->
              Binio.add_u8 b 1;
              window b bw sigma tau
          | Done { bw; sigma; tau } ->
              Binio.add_u8 b 2;
              window b bw sigma tau
          | Refused { reason } ->
              Binio.add_u8 b 3;
              Binio.add_str b reason
          | Cancelled -> Binio.add_u8 b 4)
  | Cancel_ok { id } -> encode 0x84 (fun b -> Binio.add_i64 b id)
  | Cancel_failed { id; reason } -> encode 0x85 (fun b -> id_and b id reason)
  | Stats_text text -> encode 0x86 (fun b -> Binio.add_str b text)
  | Goodbye { records } -> encode 0x87 (fun b -> Binio.add_i64 b records)
  | Error { code; message } ->
      encode 0x88 (fun b ->
          let rec index i = if codes.(i) = code then i else index (i + 1) in
          Binio.add_u8 b (index 0);
          Binio.add_str b message)

(* --- decoding ---

   A cursor over the payload.  Every read checks its bounds first; the
   two exceptions never escape [decode], which turns them into typed
   errors. *)

type cursor = { s : string; mutable pos : int }

exception Short
exception Malformed of decode_error

let take c n =
  let p = c.pos in
  if n > String.length c.s - p then raise Short;
  c.pos <- p + n;
  p

let u8 c = Binio.get_u8 c.s (take c 1)

let i64 c =
  let v = String.get_int64_le c.s (take c 8) in
  let i = Int64.to_int v in
  if not (Int64.equal (Int64.of_int i) v) then
    raise (Malformed (Bad_json_e "integer field out of range"));
  i

let f64 c = Binio.get_f64 c.s (take c 8)

let str c =
  let n = Binio.get_u32 c.s (take c 4) in
  String.sub c.s (take c n) n

let unknown what tag =
  raise (Malformed (Bad_request_e (Printf.sprintf "unknown %s tag 0x%02x" what tag)))

let decode body payload =
  let n = String.length payload in
  if n = 0 then Result.Error (Bad_json_e "empty payload")
  else
    let v = Char.code payload.[0] in
    if v <> version then Result.Error (Bad_version_e v)
    else if n < 2 then Result.Error (Bad_json_e "truncated payload")
    else
      let c = { s = payload; pos = 2 } in
      match body c (Char.code payload.[1]) with
      | exception Short -> Result.Error (Bad_json_e "truncated payload")
      | exception Malformed e -> Result.Error e
      | v when c.pos = n -> Ok v
      | _ -> Result.Error (Bad_request_e (Printf.sprintf "%d trailing bytes" (n - c.pos)))

let decode_request =
  decode (fun c -> function
    | 0x01 ->
        let id = i64 c in
        let ingress = i64 c in
        let egress = i64 c in
        let volume = f64 c in
        let ts = f64 c in
        let tf = f64 c in
        let max_rate = f64 c in
        Admit { id; ingress; egress; volume; ts; tf; max_rate }
    | 0x02 -> Query { id = i64 c }
    | 0x03 -> Cancel { id = i64 c }
    | 0x04 -> Stats
    | 0x05 -> Shutdown
    | tag -> unknown "verb" tag)

let decode_response =
  decode (fun c tag ->
      let window k =
        let bw = f64 c in
        let sigma = f64 c in
        k bw sigma (f64 c)
      in
      match tag with
      | 0x81 ->
          let id = i64 c in
          window (fun bw sigma tau -> Admitted { id; bw; sigma; tau })
      | 0x82 ->
          let id = i64 c in
          Rejected { id; reason = str c }
      | 0x83 ->
          let id = i64 c in
          let disposition =
            match u8 c with
            | 0 -> Unknown
            | 1 -> window (fun bw sigma tau -> Active { bw; sigma; tau })
            | 2 -> window (fun bw sigma tau -> Done { bw; sigma; tau })
            | 3 -> Refused { reason = str c }
            | 4 -> Cancelled
            | s -> raise (Malformed (Bad_json_e (Printf.sprintf "unknown status state %d" s)))
          in
          Status { id; disposition }
      | 0x84 -> Cancel_ok { id = i64 c }
      | 0x85 ->
          let id = i64 c in
          Cancel_failed { id; reason = str c }
      | 0x86 -> Stats_text (str c)
      | 0x87 -> Goodbye { records = i64 c }
      | 0x88 ->
          let k = u8 c in
          if k >= Array.length codes then
            raise (Malformed (Bad_json_e (Printf.sprintf "unknown error code %d" k)));
          let code = codes.(k) in
          Error { code; message = str c }
      | tag -> unknown "response" tag)

(* --- printing --- *)

let pp_request ppf = function
  | Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      Format.fprintf ppf "admit[%d %d->%d vol=%g ts=%g tf=%g max=%g]" id ingress egress volume ts
        tf max_rate
  | Query { id } -> Format.fprintf ppf "query[%d]" id
  | Cancel { id } -> Format.fprintf ppf "cancel[%d]" id
  | Stats -> Format.pp_print_string ppf "stats"
  | Shutdown -> Format.pp_print_string ppf "shutdown"

let pp_response ppf = function
  | Admitted { id; bw; sigma; tau } ->
      Format.fprintf ppf "admitted[%d bw=%g sigma=%g tau=%g]" id bw sigma tau
  | Rejected { id; reason } -> Format.fprintf ppf "rejected[%d %s]" id reason
  | Status { id; _ } -> Format.fprintf ppf "status[%d]" id
  | Cancel_ok { id } -> Format.fprintf ppf "cancelled[%d]" id
  | Cancel_failed { id; reason } -> Format.fprintf ppf "cancel-failed[%d %s]" id reason
  | Stats_text _ -> Format.pp_print_string ppf "stats"
  | Goodbye { records } -> Format.fprintf ppf "goodbye[%d]" records
  | Error { code; message } -> Format.fprintf ppf "error[%s %s]" (code_name code) message
