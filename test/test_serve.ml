(* The serving subsystem (lib/serve): framing codec, versioned protocol,
   per-connection session machine, admission semantics (idempotency,
   durability, recovery), and a live in-process daemon driven by the
   closed-loop load generator over a real Unix socket. *)

open Helpers
module Frame = Gridbw_serve.Frame
module Protocol = Gridbw_serve.Protocol
module Session = Gridbw_serve.Session
module Admission = Gridbw_serve.Admission
module Daemon = Gridbw_serve.Daemon
module Loadgen = Gridbw_serve.Loadgen
module Store = Gridbw_store.Store
module Wal = Gridbw_store.Wal
module Obs = Gridbw_obs.Obs
module Policy = Gridbw_core.Policy
module Request = Gridbw_request.Request

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let with_tmpdir f =
  let dir = Filename.temp_file "gridbw-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* Deterministic store config: huge batch, sync delay out of reach, so
   only explicit flushes commit. *)
let store_config () =
  { Store.default_config with
    wal = { Wal.default_config with Wal.batch = 1000; delay = 3600. };
    snapshot_bytes = max_int }

(* --- frame codec --- *)

module Crc32 = Gridbw_wire.Crc32

let frame_encode_shape () =
  let crc_le s =
    let b = Buffer.create 4 in
    Buffer.add_int32_le b (Crc32.digest s);
    Buffer.contents b
  in
  Alcotest.(check string) "frame layout" ("\xB1\x03\x03\x00\x00\x00abc" ^ crc_le "abc")
    (Frame.encode_binary "abc");
  Alcotest.(check string) "empty payload" ("\xB1\x03\x00\x00\x00\x00" ^ crc_le "")
    (Frame.encode_binary "");
  let admit =
    Protocol.Admit { id = 1; ingress = 0; egress = 1; volume = 1.; ts = 0.; tf = 1.; max_rate = 1. }
  in
  Alcotest.(check int) "an admit is 68 bytes on the wire" 68
    (String.length (Frame.encode_binary (Protocol.encode_request admit)));
  Alcotest.(check int) "an admitted reply is 44 bytes on the wire" 44
    (String.length
       (Frame.encode_binary
          (Protocol.encode_response (Protocol.Admitted { id = 1; bw = 1.; sigma = 0.; tau = 1. }))))

let byte_string_gen =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30))

let drain d =
  let out = ref [] in
  let rec go () =
    match Frame.next d with
    | Ok (Some p) ->
        out := p :: !out;
        go ()
    | Ok None -> ()
    | Error e -> Alcotest.failf "unexpected frame error: %s" (Frame.describe e)
  in
  go ();
  List.rev !out

let prop_frame_chunked_roundtrip =
  qcase ~count:300 "frame: payload lists survive chunked decoding"
    QCheck2.Gen.(pair (list_size (int_range 0 8) byte_string_gen) (int_range 1 7))
    (fun (payloads, chunk) ->
      let wire = String.concat "" (List.map Frame.encode_binary payloads) in
      let d = Frame.decoder () in
      let out = ref [] in
      let i = ref 0 in
      let n = String.length wire in
      while !i < n do
        let len = Int.min chunk (n - !i) in
        Frame.feed d (String.sub wire !i len);
        i := !i + len;
        out := !out @ drain d
      done;
      !out @ drain d = payloads && Frame.buffered d = 0)

let frame_truncated_prefix_waits () =
  let wire = Frame.encode_binary "abcdefghijkl" in
  for n = 0 to String.length wire - 1 do
    let d = Frame.decoder () in
    Frame.feed d (String.sub wire 0 n);
    Alcotest.(check bool) (Printf.sprintf "%d-byte prefix: need more bytes" n) true
      (Frame.next d = Ok None);
    Frame.feed d (String.sub wire n (String.length wire - n));
    Alcotest.(check bool) "completed frame decodes" true (Frame.next d = Ok (Some "abcdefghijkl"));
    Alcotest.(check int) "nothing left over" 0 (Frame.buffered d)
  done

let is_corrupt = function Error (Frame.Corrupt_frame _) -> true | _ -> false

let frame_errors_are_typed_and_sticky () =
  (* a text-framed (protocol v1) client: the first byte is not the magic *)
  let d = Frame.decoder () in
  Frame.feed d "20 {\"v\":1,\"op\":\"stats\"}\n";
  Alcotest.(check bool) "text frame refused" true (is_corrupt (Frame.next d));
  (* the decoder stays broken even when good bytes follow *)
  Frame.feed d (Frame.encode_binary "fine");
  Alcotest.(check bool) "decoder stays poisoned" true (is_corrupt (Frame.next d));
  (* declared length over the cap *)
  let d = Frame.decoder ~max_frame:10 () in
  Frame.feed d (String.sub (Frame.encode_binary (String.make 11 'a')) 0 6);
  Alcotest.(check bool) "oversized" true (Frame.next d = Error (Frame.Oversized 11));
  (* a flipped payload byte fails the CRC *)
  let d = Frame.decoder () in
  let b = Bytes.of_string (Frame.encode_binary "payload") in
  Bytes.set b 7 'X';
  Frame.feed d (Bytes.to_string b);
  Alcotest.(check bool) "crc mismatch" true (is_corrupt (Frame.next d));
  (* a frame under another subsystem's tag *)
  let d = Frame.decoder () in
  let b = Buffer.create 16 in
  Gridbw_wire.Frame.add b ~tag:0x01 "event";
  Frame.feed d (Buffer.contents b);
  Alcotest.(check bool) "foreign tag" true (is_corrupt (Frame.next d))

let frame_blocking_io () =
  let path = Filename.temp_file "gridbw-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Frame.output oc "hello";
      Frame.output oc "";
      output_string oc "5 hello\n";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "first frame" true (Frame.input ic = Ok "hello");
          Alcotest.(check bool) "second frame" true (Frame.input ic = Ok "");
          Alcotest.(check bool) "text frame refused" true
            (match Frame.input ic with Error (`Frame (Frame.Corrupt_frame _)) -> true | _ -> false);
          Alcotest.(check bool) "eof" true (Frame.input ic = Error `Eof)))

(* --- protocol codec --- *)

(* Floats the codec must carry bit for bit: signed zeros, infinities,
   NaNs with payloads, subnormals, and arbitrary bit patterns. *)
let float_gen =
  QCheck2.Gen.(
    oneof
      [
        float_range (-1e12) 1e12;
        map Int64.float_of_bits ui64;
        oneofl
          [
            0.; -0.; infinity; neg_infinity; nan;
            Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL;
            Int64.float_of_bits 0xFFF0_0000_0000_0001L;
            Int64.float_of_bits 0x0000_0000_0000_0001L;
            Int64.float_of_bits 0x800F_FFFF_FFFF_FFFFL;
          ];
      ])

let int_gen = QCheck2.Gen.(oneof [ nat; int; oneofl [ 0; -1; min_int; max_int ] ])

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        (let* id = int_gen and* ingress = int_gen and* egress = int_gen in
         let* volume = float_gen and* ts = float_gen and* tf = float_gen and* max_rate = float_gen in
         return (Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate }));
        map (fun id -> Protocol.Query { id }) int_gen;
        map (fun id -> Protocol.Cancel { id }) int_gen;
        return Protocol.Stats;
        return Protocol.Shutdown;
      ])

let response_gen =
  QCheck2.Gen.(
    let window = triple float_gen float_gen float_gen in
    oneof
      [
        (let* id = int_gen and* bw, sigma, tau = window in
         return (Protocol.Admitted { id; bw; sigma; tau }));
        (let* id = int_gen and* reason = byte_string_gen in
         return (Protocol.Rejected { id; reason }));
        (let* id = int_gen in
         let* disposition =
           oneof
             [
               return Protocol.Unknown;
               map (fun (bw, sigma, tau) -> Protocol.Active { bw; sigma; tau }) window;
               map (fun (bw, sigma, tau) -> Protocol.Done { bw; sigma; tau }) window;
               map (fun reason -> Protocol.Refused { reason }) byte_string_gen;
               return Protocol.Cancelled;
             ]
         in
         return (Protocol.Status { id; disposition }));
        map (fun id -> Protocol.Cancel_ok { id }) int_gen;
        (let* id = int_gen and* reason = byte_string_gen in
         return (Protocol.Cancel_failed { id; reason }));
        (* stats payloads embed raw Prometheus text, newlines included *)
        map (fun text -> Protocol.Stats_text text) byte_string_gen;
        map (fun records -> Protocol.Goodbye { records }) int_gen;
        (let* code =
           oneofl
             [ Protocol.Bad_frame; Protocol.Bad_json; Protocol.Bad_version; Protocol.Bad_request;
               Protocol.Overloaded ]
         and* message = byte_string_gen in
         return (Protocol.Error { code; message }));
      ])

(* Messages with every float replaced by its bit pattern, so structural
   equality is bit equality (nan <> nan under float equality). *)
let bits = Int64.bits_of_float

let request_key = function
  | Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      `Admit (id, ingress, egress, List.map bits [ volume; ts; tf; max_rate ])
  | r -> `Plain r

let response_key =
  let window bw sigma tau = List.map bits [ bw; sigma; tau ] in
  function
  | Protocol.Admitted { id; bw; sigma; tau } -> `Admitted (id, window bw sigma tau)
  | Protocol.Status { id; disposition = Protocol.Active { bw; sigma; tau } } ->
      `Active (id, window bw sigma tau)
  | Protocol.Status { id; disposition = Protocol.Done { bw; sigma; tau } } ->
      `Done (id, window bw sigma tau)
  | r -> `Plain r

let prop_request_roundtrip =
  qcase ~count:400 "protocol: every request constructor round-trips" request_gen (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> request_key r' = request_key r
      | Error _ -> false)

let prop_response_roundtrip =
  qcase ~count:400 "protocol: every response constructor round-trips" response_gen (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> response_key r' = response_key r
      | Error _ -> false)

let prop_strict_prefixes_fail =
  qcase ~count:200 "protocol: every strict prefix is a typed error"
    QCheck2.Gen.(pair request_gen response_gen)
    (fun (req, resp) ->
      let prefixes s = List.init (String.length s) (fun n -> String.sub s 0 n) in
      List.for_all
        (fun p -> Result.is_error (Protocol.decode_request p))
        (prefixes (Protocol.encode_request req))
      && List.for_all
           (fun p -> Result.is_error (Protocol.decode_response p))
           (prefixes (Protocol.encode_response resp)))

(* No payload checksum exists (the frame's CRC covers it), so a flipped
   field byte may decode to another valid message; it must never raise.
   Inside a frame, the same flip never yields a payload. *)
let prop_corruption_never_raises =
  qcase ~count:200 "protocol: single-byte corruption never raises"
    QCheck2.Gen.(triple request_gen response_gen (int_range 1 255))
    (fun (req, resp, mask) ->
      let flips s =
        List.init (String.length s) (fun i ->
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code s.[i] lxor mask));
            Bytes.to_string b)
      in
      let req_s = Protocol.encode_request req and resp_s = Protocol.encode_response resp in
      List.iter (fun p -> ignore (Protocol.decode_request p)) (flips req_s);
      List.iter (fun p -> ignore (Protocol.decode_response p)) (flips resp_s);
      List.for_all
        (fun wire ->
          let d = Frame.decoder () in
          Frame.feed d wire;
          match Frame.next d with Ok (Some _) -> false | Ok None | Error _ -> true)
        (flips (Frame.encode_binary req_s) @ flips (Frame.encode_binary resp_s)))

let protocol_rejects_bad_payloads () =
  let is_bad_payload = function Result.Error (Protocol.Bad_json_e _) -> true | _ -> false in
  let is_bad_req = function Result.Error (Protocol.Bad_request_e _) -> true | _ -> false in
  let stats = Protocol.encode_request Protocol.Stats in
  Alcotest.(check bool) "empty payload" true (is_bad_payload (Protocol.decode_request ""));
  Alcotest.(check bool) "a v1 JSON payload is refused by version" true
    (Protocol.decode_request {|{"v":1,"op":"stats"}|} = Result.Error (Protocol.Bad_version_e 123));
  Alcotest.(check bool) "wrong version byte" true
    (Protocol.decode_request ("\x01" ^ String.sub stats 1 1)
    = Result.Error (Protocol.Bad_version_e 1));
  Alcotest.(check bool) "unknown verb tag" true (is_bad_req (Protocol.decode_request "\x02\x7f"));
  Alcotest.(check bool) "a response tag is no verb" true
    (is_bad_req (Protocol.decode_request (Protocol.encode_response (Protocol.Cancel_ok { id = 1 }))));
  Alcotest.(check bool) "trailing bytes" true (is_bad_req (Protocol.decode_request (stats ^ "x")));
  Alcotest.(check bool) "truncated field" true
    (is_bad_payload (Protocol.decode_request (String.sub (Protocol.encode_request (Protocol.Query { id = 3 })) 0 6)));
  (* an i64 that does not fit OCaml's 63-bit int is refused, not wrapped *)
  Alcotest.(check bool) "integer out of range" true
    (is_bad_payload (Protocol.decode_request "\x02\x02\xff\xff\xff\xff\xff\xff\xff\x7f"));
  Alcotest.(check bool) "unknown status state" true
    (is_bad_payload (Protocol.decode_response "\x02\x83\x01\x00\x00\x00\x00\x00\x00\x00\x09"));
  Alcotest.(check bool) "unknown error code" true
    (is_bad_payload (Protocol.decode_response "\x02\x88\x09\x00\x00\x00\x00"));
  Alcotest.(check bool) "string length past the end" true
    (is_bad_payload (Protocol.decode_response "\x02\x86\xff\x00\x00\x00abc"));
  (* decode errors map onto typed error responses *)
  match Protocol.error_of_decode (Protocol.Bad_version_e 9) with
  | Protocol.Error { code = Protocol.Bad_version; _ } -> ()
  | _ -> Alcotest.fail "expected a bad-version error response"

(* --- session --- *)

let session_keeps_going_after_bad_payload () =
  let s = Session.create ~id:0 () in
  Session.feed s (Frame.encode_binary "");
  (match Session.next s with
  | Some (Session.Undecodable (Protocol.Error { code = Protocol.Bad_json; _ })) -> ()
  | _ -> Alcotest.fail "expected a malformed-payload error");
  Session.feed s (Frame.encode_binary {|{"v":1,"op":"stats"}|});
  (match Session.next s with
  | Some (Session.Undecodable (Protocol.Error { code = Protocol.Bad_version; _ })) -> ()
  | _ -> Alcotest.fail "expected a bad-version error for a v1 payload");
  Alcotest.(check bool) "connection survives payload errors" false (Session.want_close s);
  Session.feed s (Frame.encode_binary (Protocol.encode_request Protocol.Stats));
  (match Session.next s with
  | Some (Session.Request Protocol.Stats) -> ()
  | _ -> Alcotest.fail "expected the stats request");
  Alcotest.(check int) "all frames counted" 3 (Session.frames_in s)

let session_closes_on_broken_framing () =
  let s = Session.create ~id:1 () in
  Session.feed s "garbage that is not a frame\n";
  (match Session.next s with
  | Some (Session.Broken (Protocol.Error { code = Protocol.Bad_frame; _ })) -> ()
  | _ -> Alcotest.fail "expected a broken-framing error");
  Alcotest.(check bool) "session wants to close" true (Session.want_close s);
  Alcotest.(check bool) "no further messages" true (Session.next s = None)

let session_output_is_framed () =
  let s = Session.create ~id:2 () in
  let resps = List.init 5 (fun records -> Protocol.Goodbye { records }) in
  List.iter (Session.queue s) resps;
  Alcotest.(check bool) "output pending" true (Session.pending s);
  (* a socket that takes at most 7 bytes per write *)
  let wire = Buffer.create 256 in
  let rec pump () =
    if Session.pending s then begin
      Session.write_out s (fun b off len ->
          let n = Int.min 7 len in
          Buffer.add_subbytes wire b off n;
          n);
      pump ()
    end
  in
  pump ();
  let d = Frame.decoder () in
  Frame.feed d (Buffer.contents wire);
  Alcotest.(check bool) "payloads decode back in order" true
    (List.map Protocol.decode_response (drain d) = List.map Result.ok resps);
  Alcotest.(check int) "responses counted" 5 (Session.responses_out s)

(* --- admission semantics --- *)

let policy = Policy.Fraction_of_max 0.8

let admit ?(id = 1) ?(ingress = 0) ?(egress = 0) ?(volume = 100.) ?(ts = 0.) ?(tf = 10.)
    ?(max_rate = 50.) () =
  Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate }

let admission_decides_and_is_idempotent () =
  let t = Admission.create ~policy (fabric2 ()) in
  let first = Admission.handle t (admit ()) in
  (match first with
  | Protocol.Admitted { id = 1; bw; sigma; tau } ->
      (* f=0.8 grants max(0.8*50, 100/10) = 40 MB/s from sigma = ts *)
      check_approx "bw" 40.0 bw;
      check_approx "sigma" 0.0 sigma;
      check_approx "tau" 2.5 tau
  | r -> Alcotest.failf "expected admission, got %a" Protocol.pp_response r);
  (* at-least-once retry: byte-identical decision, no re-decide *)
  Alcotest.(check bool) "duplicate admit returns the recorded decision" true
    (Admission.handle t (admit ()) = first);
  Alcotest.(check int) "still one accepted" 1 (Admission.accepted_count t);
  (* infeasible: min rate 200 MB/s on a 100 MB/s port *)
  (match Admission.handle t (admit ~id:2 ~volume:2000. ~max_rate:200. ()) with
  | Protocol.Rejected { id = 2; _ } -> ()
  | r -> Alcotest.failf "expected rejection, got %a" Protocol.pp_response r);
  (* validation failures come back as typed errors, not exceptions *)
  (match Admission.handle t (admit ~id:3 ~ingress:9 ()) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.failf "expected bad-request (no such route), got %a" Protocol.pp_response r);
  (match Admission.handle t (admit ~id:4 ~ts:(-1.) ~tf:5. ()) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.failf "expected bad-request (negative ts), got %a" Protocol.pp_response r);
  (match Admission.handle t (admit ~id:5 ~tf:0. ()) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.failf "expected bad-request (empty window), got %a" Protocol.pp_response r)

let admission_query_and_cancel () =
  let t = Admission.create ~policy (fabric2 ()) in
  (match Admission.handle t (Protocol.Query { id = 9 }) with
  | Protocol.Status { id = 9; disposition = Protocol.Unknown } -> ()
  | r -> Alcotest.failf "expected unknown, got %a" Protocol.pp_response r);
  ignore (Admission.handle t (admit ()));
  (match Admission.handle t (Protocol.Query { id = 1 }) with
  | Protocol.Status { id = 1; disposition = Protocol.Active _ } -> ()
  | r -> Alcotest.failf "expected active, got %a" Protocol.pp_response r);
  (match Admission.handle t (Protocol.Cancel { id = 1 }) with
  | Protocol.Cancel_ok { id = 1 } -> ()
  | r -> Alcotest.failf "expected cancel-ok, got %a" Protocol.pp_response r);
  Alcotest.(check bool) "cancel retry is idempotent" true
    (Admission.handle t (Protocol.Cancel { id = 1 }) = Protocol.Cancel_ok { id = 1 });
  (match Admission.handle t (Protocol.Query { id = 1 }) with
  | Protocol.Status { id = 1; disposition = Protocol.Cancelled } -> ()
  | r -> Alcotest.failf "expected cancelled, got %a" Protocol.pp_response r);
  (match Admission.handle t (Protocol.Cancel { id = 77 }) with
  | Protocol.Cancel_failed { id = 77; _ } -> ()
  | r -> Alcotest.failf "expected cancel-failed, got %a" Protocol.pp_response r);
  (* a cancelled transfer's bandwidth is free again *)
  (match Admission.handle t (admit ~id:2 ~volume:900. ~max_rate:100. ()) with
  | Protocol.Admitted _ -> ()
  | r -> Alcotest.failf "expected re-admission after cancel, got %a" Protocol.pp_response r);
  (match Admission.handle t Protocol.Stats with
  | Protocol.Stats_text _ -> ()
  | r -> Alcotest.failf "expected stats text, got %a" Protocol.pp_response r);
  match Admission.handle t Protocol.Shutdown with
  | Protocol.Goodbye { records = 0 } -> ()
  | r -> Alcotest.failf "expected goodbye with 0 records (no store), got %a" Protocol.pp_response r

(* Journal a mixed decision history through a store, recover it, and
   demand the resumed admission state answers every retry and query with
   the original (bit-identical) decision. *)
let admission_recovery_round_trip () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let t = Admission.create ~store ~policy fabric in
      let reqs =
        List.map
          (fun (r : Request.t) ->
            Protocol.Admit
              {
                id = r.Request.id;
                ingress = r.Request.ingress;
                egress = r.Request.egress;
                volume = r.Request.volume;
                ts = Float.max 0. r.Request.ts;
                tf = r.Request.tf;
                max_rate = r.Request.max_rate;
              })
          (random_requests ~seed:11L ~n:40 fabric)
      in
      let responses = List.map (Admission.handle t) reqs in
      (* cancel the first two admitted transfers *)
      let admitted_ids =
        List.filter_map
          (function Protocol.Admitted { id; _ } -> Some id | _ -> None)
          responses
      in
      Alcotest.(check bool) "workload admits something" true (List.length admitted_ids >= 2);
      let to_cancel = [ List.nth admitted_ids 0; List.nth admitted_ids 1 ] in
      List.iter
        (fun id ->
          match Admission.handle t (Protocol.Cancel { id }) with
          | Protocol.Cancel_ok _ -> ()
          | r -> Alcotest.failf "cancel failed: %a" Protocol.pp_response r)
        to_cancel;
      Alcotest.(check bool) "decisions are dirty before flush" true (Admission.dirty t);
      Admission.flush t;
      Alcotest.(check bool) "flush clears dirty" false (Admission.dirty t);
      Admission.close t;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error e -> Alcotest.fail e
          | Ok t2 ->
              Alcotest.(check int) "accepted count survives"
                (Admission.accepted_count t)
                (Admission.accepted_count t2);
              (* every admit retried against the recovered daemon returns
                 the original decision, floats bit-identical *)
              List.iter2
                (fun req resp ->
                  if Admission.handle t2 req <> resp then
                    Alcotest.failf "recovered decision differs for %a" Protocol.pp_request req)
                reqs responses;
              List.iter
                (fun id ->
                  match Admission.handle t2 (Protocol.Query { id }) with
                  | Protocol.Status { disposition = Protocol.Cancelled; _ } -> ()
                  | r -> Alcotest.failf "expected cancelled after recovery, got %a"
                           Protocol.pp_response r)
                to_cancel;
              Admission.close t2))

(* A daemon journal with cancels: the cancel of request 1 frees the
   ingress-0 capacity that request 2 then books, so every Accept taken
   together overbooks the port, while the surviving bookings (the ones no
   cancel released) fit.  The recovery audit checks the survivors, so
   the journal audits clean, in the daemon and in [gridbw recover]. *)
let daemon_journal_with_cancels_audits_clean () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let t = Admission.create ~store ~policy fabric in
      let admit id ~ingress ~egress ~ts =
        Admission.handle t
          (Protocol.Admit { id; ingress; egress; volume = 800.; ts; tf = ts +. 10.; max_rate = 100. })
      in
      let cancel id =
        match Admission.handle t (Protocol.Cancel { id }) with
        | Protocol.Cancel_ok _ -> ()
        | r -> Alcotest.failf "cancel %d failed: %a" id Protocol.pp_response r
      in
      let admitted = function Protocol.Admitted _ -> true | _ -> false in
      Alcotest.(check bool) "request 1 admitted" true (admitted (admit 1 ~ingress:0 ~egress:0 ~ts:0.));
      cancel 1;
      Alcotest.(check bool) "request 2 reuses the freed capacity" true
        (admitted (admit 2 ~ingress:0 ~egress:1 ~ts:0.));
      (* more load on the same ports, every other admission cancelled *)
      for id = 3 to 12 do
        if admitted (admit id ~ingress:(id mod 2) ~egress:(id mod 2) ~ts:(float_of_int id))
           && id mod 2 = 1
        then cancel id
      done;
      Admission.flush t;
      Admission.close t;
      (match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r ->
          let every_accept = List.map snd r.Store.accepted in
          Alcotest.(check bool) "all Accepts together overbook a port" true
            (Gridbw_check.Reference.audit_allocations fabric every_accept <> []);
          let survivors, violations = Admission.audit r in
          Alcotest.(check (list string)) "survivors audit clean" [] violations;
          let survivors =
            match survivors with Some s -> s | None -> Alcotest.fail "audit skipped"
          in
          let cancels =
            List.length
              (List.filter (function Gridbw_obs.Event.Preempt _ -> true | _ -> false) r.Store.events)
          in
          Alcotest.(check bool) "the journal has cancels" true (cancels >= 2);
          Alcotest.(check int) "survivors = accepts - cancels"
            (List.length every_accept - cancels) (List.length survivors);
          (match Admission.of_recovered ~policy r with
          | Error e -> Alcotest.failf "of_recovered refused a sound journal: %s" e
          | Ok t2 -> Admission.close t2));
      let exe =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "gridbw.exe"))
      in
      let ic = Unix.open_process_args_in exe [| exe; "recover"; "--json"; dir |] in
      let out = In_channel.input_all ic in
      Alcotest.(check bool) "gridbw recover exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
      Alcotest.(check bool) ("recover --json reports clean: " ^ out) true
        (contains ~affix:{|"audit":"clean"|} out))

(* Surviving bookings that overbook a port must be refused even when the
   journal has cancels (a cancel used to switch the audit off). *)
let overbooked_survivors_refused () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let module Event = Gridbw_obs.Event in
      let book id =
        Store.log store
          (Event.Arrival
             { time = 0.; seq = id; id; ingress = 0; egress = id mod 2; volume = 700.; ts = 0.;
               tf = 10.; max_rate = 70. });
        Store.log store
          (Event.Accept
             { time = 0.; id; ingress = 0; egress = id mod 2; volume = 700.; ts = 0.; tf = 10.;
               max_rate = 70.; bw = 70.; sigma = 0. })
      in
      book 0;
      Store.log store (Event.Preempt { time = 0.; id = 0; bw = 70. });
      book 1;
      book 2;
      Store.close store;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          let expected =
            match
              Gridbw_check.Reference.audit_allocations fabric
                (List.filter_map
                   (fun (_, (a : Gridbw_alloc.Allocation.t)) ->
                     if a.Gridbw_alloc.Allocation.request.Request.id = 0 then None else Some a)
                   r.Store.accepted)
            with
            | v :: _ -> Gridbw_check.Reference.describe v
            | [] -> Alcotest.fail "bookings 1 and 2 should overbook ingress 0"
          in
          match Admission.of_recovered ~policy r with
          | Ok _ -> Alcotest.fail "overbooked survivors accepted"
          | Error msg ->
              Alcotest.(check bool) ("names the violation: " ^ msg) true
                (contains ~affix:expected msg && contains ~affix:"ingress port 0" msg)))

let of_recovered_refuses_engine_journals () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      (* a capacity revision past the prefix marks a fault-injector run *)
      Store.log store
        (Gridbw_obs.Event.Arrival
           {
             time = 1.0;
             seq = 0;
             id = 0;
             ingress = 0;
             egress = 0;
             volume = 10.;
             ts = 1.0;
             tf = 11.0;
             max_rate = 5.;
           });
      Store.log store
        (Gridbw_obs.Event.Capacity
           { time = 5.0; side = Gridbw_obs.Event.Ingress; port = 0; capacity = 50. });
      Store.close store;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error msg ->
              Alcotest.(check bool) "names the cause" true (String.length msg > 0)
          | Ok _ -> Alcotest.fail "engine-driven journal must be refused"))

(* --- live daemon end to end --- *)

let daemon_config ~sock ~store_dir =
  { (Daemon.default_config ~policy ~fabric:(fabric2 ()) ~store_dir (Daemon.Unix_socket sock)) with
    Daemon.store_config = store_config ();
    tick = 0.02 }

let end_to_end_live_daemon () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let store_dir = Filename.concat dir "store" in
      let cfg = daemon_config ~sock ~store_dir in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d -> (
          let th = Thread.create Daemon.run d in
          let lg =
            (* light load (large interarrival) so most requests admit and
               cancel_every:2 fires on every worker *)
            Loadgen.default_config ~connections:3 ~requests:300 ~seed:5L ~cancel_every:2
              ~mean_interarrival:50. ~fabric:(fabric2 ()) (Daemon.Unix_socket sock)
          in
          match Loadgen.run lg with
          | Error e ->
              Daemon.stop d;
              Thread.join th;
              Alcotest.fail e
          | Ok report -> (
              Alcotest.(check int) "every admit answered" 300
                (report.Loadgen.admitted + report.Loadgen.rejected);
              Alcotest.(check int) "no protocol errors" 0 report.Loadgen.errors;
              Alcotest.(check int) "no disconnects" 0 report.Loadgen.disconnects;
              Alcotest.(check bool) "some admitted" true (report.Loadgen.admitted > 0);
              Alcotest.(check bool) "some cancelled" true (report.Loadgen.cancelled > 0);
              Alcotest.(check bool) "latencies measured" true
                (report.Loadgen.lat_p50_us > 0.
                 && report.Loadgen.lat_p50_us <= report.Loadgen.lat_p99_us);
              (* graceful shutdown through the protocol verb *)
              (match Loadgen.shutdown (Daemon.Unix_socket sock) with
              | Error e -> Alcotest.fail ("shutdown: " ^ e)
              | Ok records -> Alcotest.(check bool) "journal non-empty" true (records > 0));
              Thread.join th;
              Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists sock);
              (* restart on the surviving store: recovery audits clean and
                 the decision history is intact *)
              match Daemon.create cfg with
              | Error e -> Alcotest.fail ("restart: " ^ e)
              | Ok d2 ->
                  let adm = Daemon.admission d2 in
                  Alcotest.(check int) "accepted count survives restart"
                    report.Loadgen.admitted
                    (Admission.accepted_count adm);
                  Daemon.stop d2;
                  let th2 = Thread.create Daemon.run d2 in
                  Thread.join th2)))

(* --- flight recorder --- *)

module Span = Gridbw_obs.Span
module Flight = Gridbw_obs.Flight

let flight_span i =
  Span.make ~id:i ~conn:(i mod 4) ~req:(Some (1000 + i)) ~time:(float_of_int i)
    ~total_ns:(float_of_int (i * 100)) ~probes:2
    ~durs:[| 1.; 2.; 3.; 4.; 5.; 6. |]

let span_ids spans = List.map Span.id spans

let flight_wraps_and_keeps_newest () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "flight.bin" in
      (* A file this small holds only a handful of frames, so 100
         appends wrap it many times over. *)
      let frame_len =
        String.length (Gridbw_wire.Codec.to_string (module Span.Binary) (flight_span 0))
      in
      let f = Flight.create ~size:(4 * frame_len) path in
      for i = 0 to 99 do
        Flight.append f (flight_span i)
      done;
      Flight.close f;
      match Flight.scan path with
      | Error e -> Alcotest.fail e
      | Ok spans ->
          let n = List.length spans in
          Alcotest.(check bool) "a wrapped ring keeps a recent window" true
            (n >= 2 && n <= 4);
          let expect = List.init n (fun j -> 100 - n + j) in
          Alcotest.(check (list int)) "newest spans, oldest first" expect (span_ids spans);
          Alcotest.(check (list int)) "last trims to the newest two" [ 98; 99 ]
            (span_ids (Flight.last 2 spans)))

let flight_tolerates_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "flight.bin" in
      let f = Flight.create ~size:(1 lsl 14) path in
      for i = 0 to 9 do
        Flight.append f (flight_span i)
      done;
      Flight.close f;
      let read_all () =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let bytes = Bytes.of_string (read_all ()) in
      (* Sever the last frame mid-record: flip a byte inside it.  The
         CRC kills that frame; every other span still comes back. *)
      let frame_len =
        String.length (Gridbw_wire.Codec.to_string (module Span.Binary) (flight_span 9))
      in
      let torn_at = (10 * frame_len) - (frame_len / 2) in
      Bytes.set bytes torn_at (Char.chr (Char.code (Bytes.get bytes torn_at) lxor 0xff));
      Alcotest.(check (list int)) "corrupted frame dropped, rest recovered"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
        (span_ids (Flight.scan_string (Bytes.to_string bytes)));
      (* Truncation (crash mid-write of the trailing frame) behaves the
         same: the partial record is dropped, not fatal. *)
      let truncated = Bytes.sub_string bytes 0 ((10 * frame_len) - 3) in
      Alcotest.(check (list int)) "truncated tail dropped"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
        (span_ids (Flight.scan_string truncated)))

let daemon_survives_malformed_clients () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ()) (Daemon.Unix_socket sock)) with
          Daemon.tick = 0.02 }
      in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d ->
          let th = Thread.create Daemon.run d in
          let connect () =
            let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX sock);
            fd
          in
          (* a client with broken framing gets a typed error then the boot *)
          let fd = connect () in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc "this is not a frame\n";
          flush oc;
          (match Frame.input ic with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Error { code = Protocol.Bad_frame; _ }) -> ()
              | _ -> Alcotest.fail "expected a bad-frame error response")
          | Error _ -> Alcotest.fail "expected an error response before close");
          Alcotest.(check bool) "connection closed after framing error" true
            (Frame.input ic = Error `Eof);
          Unix.close fd;
          (* a version-1 JSON payload in a well-formed frame is refused by
             version, and the connection stays alive *)
          let fd = connect () in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          Frame.output oc {|{"v":1,"op":"stats"}|};
          (match Frame.input ic with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Error { code = Protocol.Bad_version; _ }) -> ()
              | _ -> Alcotest.fail "expected a bad-version error response")
          | Error _ -> Alcotest.fail "expected an error response");
          Frame.output oc (Protocol.encode_request Protocol.Stats);
          (match Frame.input ic with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Stats_text text) ->
                  Alcotest.(check bool) "stats carries serve metrics" true
                    (contains ~affix:"serve_connections_total" text)
              | _ -> Alcotest.fail "expected stats after the payload error")
          | Error _ -> Alcotest.fail "connection should have survived the payload error");
          Unix.close fd;
          Daemon.stop d;
          Thread.join th)

let stats_text ic oc =
  Frame.output oc (Protocol.encode_request Protocol.Stats);
  match Result.map Protocol.decode_response (Frame.input ic) with
  | Ok (Ok (Protocol.Stats_text text)) -> text
  | _ -> Alcotest.fail "expected a stats reply"

let metric_value text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

(* The connection cap is the daemon's own constant, so the test runs the
   real [gridbw serve] in a child process (its own descriptor table) and
   opens more clients than the cap.  Client sockets here may sit past
   FD_SETSIZE, so reads time out through SO_RCVTIMEO, not [select]. *)
let daemon_refuses_past_connection_cap () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let exe =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "gridbw.exe"))
      in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
      let pid = Unix.create_process exe [| exe; "serve"; "--socket"; sock |] null null null in
      Unix.close null;
      let fds = ref [] in
      let connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        fds := fd :: !fds;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd
      in
      let rec first_connect tries =
        match connect () with
        | fd -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
            Unix.close (List.hd !fds);
            fds := List.tl !fds;
            Unix.sleepf 0.02;
            first_connect (tries - 1)
      in
      let finish () =
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fds;
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
      in
      let body () =
        let fd = first_connect 500 in
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        let cap =
          match metric_value (stats_text ic oc) "serve_connections_limit" with
          | Some v -> int_of_float v
          | None -> Alcotest.fail "stats lacks serve_connections_limit"
        in
        Alcotest.(check bool) "cap below FD_SETSIZE" true (cap > 0 && cap < 1024);
        (* fill the cap with idle raw sockets (no channel buffers), then
           queue the surplus behind them: accept order is connect order *)
        for _ = 2 to cap do
          ignore (connect ())
        done;
        let surplus = 5 in
        List.iter
          (fun fd ->
            let ic = Unix.in_channel_of_descr fd in
            (match Result.map Protocol.decode_response (Frame.input ic) with
            | Ok (Ok (Protocol.Error { code = Protocol.Overloaded; _ })) -> ()
            | _ -> Alcotest.fail "expected a typed overloaded refusal");
            Alcotest.(check bool) "refused connection closed" true (Frame.input ic = Error `Eof))
          (List.init surplus (fun _ -> connect ()));
        let text = stats_text ic oc in
        Alcotest.(check (option (float 0.))) "daemon still answers; refusals counted"
          (Some (float_of_int surplus))
          (metric_value text "serve_connections_refused_total");
        Alcotest.(check (option (float 0.))) "the cap is full, not exceeded"
          (Some (float_of_int cap))
          (metric_value text "serve_connections_active")
      in
      match body () with
      | () ->
          Alcotest.(check bool) "daemon exits cleanly on SIGTERM" true
            (finish () = Unix.WEXITED 0)
      | exception e ->
          ignore (finish ());
          raise e)

(* The /metrics listener holds at most 16 scrapers.  Seventeen queued
   before the loop starts are all accepted in its first round; the one
   past the cap is closed unanswered, the rest are served. *)
let daemon_caps_metrics_scrapes () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let port =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
        Unix.close fd;
        port
      in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ()) ~metrics_port:port
             (Daemon.Unix_socket sock))
          with
          Daemon.tick = 0.02 }
      in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d ->
          let cap = 16 in
          let scrapers =
            List.init (cap + 1) (fun _ ->
                let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
                Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                fd)
          in
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let th = Thread.create Daemon.run d in
          (* a stats reply comes in a later round than the first one,
             which accepted every queued scraper *)
          ignore (stats_text (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd));
          let closed, kept =
            List.partition
              (fun s -> match Unix.select [ s ] [] [] 0. with [], _, _ -> false | _ -> true)
              scrapers
          in
          Alcotest.(check int) "scrapers held at the cap" cap (List.length kept);
          Alcotest.(check int) "the one past the cap closed" 1 (List.length closed);
          List.iter
            (fun s ->
              let req = "GET /metrics HTTP/1.0\r\n\r\n" in
              ignore (Unix.write_substring s req 0 (String.length req));
              (match Unix.select [ s ] [] [] 5. with
              | [], _, _ -> Alcotest.fail "scraper got no answer"
              | _ -> ());
              let ic = Unix.in_channel_of_descr s in
              Alcotest.(check string) "kept scrapers are served" "HTTP/1.0 200 OK\r"
                (input_line ic))
            kept;
          List.iter Unix.close (fd :: scrapers);
          Daemon.stop d;
          Thread.join th)

(* Every traced request records a frame-decode and a protocol-parse
   sample: the span clock resolves those sub-µs stages. *)
let daemon_span_stage_counts () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let obs = Obs.create () in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ())
             ~span_out:(Filename.concat dir "spans.bin") (Daemon.Unix_socket sock))
          with
          Daemon.tick = 0.02 }
      in
      match Daemon.create ~obs cfg with
      | Error e -> Alcotest.fail e
      | Ok d -> (
          let th = Thread.create Daemon.run d in
          let lg =
            Loadgen.default_config ~connections:2 ~requests:200 ~seed:3L ~mean_interarrival:50.
              ~fabric:(fabric2 ()) (Daemon.Unix_socket sock)
          in
          let report = Loadgen.run lg in
          Daemon.stop d;
          Thread.join th;
          match report with
          | Error e -> Alcotest.fail e
          | Ok r ->
              let count name =
                Gridbw_obs.Metrics.hist_count
                  (Gridbw_obs.Metrics.histogram (Obs.metrics obs) ("serve_" ^ name ^ "_ns"))
              in
              Alcotest.(check int) "one span per request" r.Loadgen.sent (count "span_total");
              Alcotest.(check int) "frame_decode samples = spans" (count "span_total")
                (count "stage_frame_decode");
              Alcotest.(check int) "protocol_parse samples = spans" (count "span_total")
                (count "stage_protocol_parse")))

let suites =
  [
    ( "serve.frame",
      [
        case "encode layout" frame_encode_shape;
        prop_frame_chunked_roundtrip;
        case "truncated prefixes wait for bytes" frame_truncated_prefix_waits;
        case "malformed frames: typed, sticky errors" frame_errors_are_typed_and_sticky;
        case "blocking channel helpers" frame_blocking_io;
      ] );
    ( "serve.protocol",
      [
        prop_request_roundtrip;
        prop_response_roundtrip;
        prop_strict_prefixes_fail;
        prop_corruption_never_raises;
        case "malformed payloads: typed decode errors" protocol_rejects_bad_payloads;
      ] );
    ( "serve.session",
      [
        case "payload errors keep the connection" session_keeps_going_after_bad_payload;
        case "framing errors close the connection" session_closes_on_broken_framing;
        case "responses leave framed" session_output_is_framed;
      ] );
    ( "serve.admission",
      [
        case "decide, reject, validate, idempotent retries" admission_decides_and_is_idempotent;
        case "query and cancel lifecycle" admission_query_and_cancel;
        case "journal, recover, bit-identical decisions" admission_recovery_round_trip;
        case "engine-driven journals refused" of_recovered_refuses_engine_journals;
        case "a daemon journal with cancels audits clean" daemon_journal_with_cancels_audits_clean;
        case "surviving bookings that overbook a port are refused" overbooked_survivors_refused;
      ] );
    ( "serve.flight",
      [
        case "ring file wraps, keeps the newest spans" flight_wraps_and_keeps_newest;
        case "torn tail drops the damaged frame only" flight_tolerates_torn_tail;
      ] );
    ( "serve.daemon",
      [
        slow_case "end to end: loadgen, shutdown, restart" end_to_end_live_daemon;
        case "malformed clients get typed errors" daemon_survives_malformed_clients;
        case "connection cap: surplus clients get a typed refusal" daemon_refuses_past_connection_cap;
        case "/metrics cap: a scraper past it is closed" daemon_caps_metrics_scrapes;
        case "traced run: stage samples match span count" daemon_span_stage_counts;
      ] );
  ]
