(* The wire form of {!Event.t} behind the {!Gridbw_wire.Codec.S}
   interface: a length-prefixed binary frame under {!frame_tag}.  It
   round-trips every constructor bit-exactly (floats as IEEE bit
   patterns).  The JSON rendering ({!Event.to_json}) is for snapshots and
   for [gridbw export], not for traces or the WAL. *)

module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame
module Binio = Gridbw_wire.Binio

(* Frame tag for event records; bump on incompatible layout changes. *)
let frame_tag = 0x01

module Binary = struct
  type t = Event.t

  let name = "event-binary"

  let add_side b side = Binio.add_u8 b (match side with Event.Ingress -> 0 | Event.Egress -> 1)

  let encode_body b (ev : Event.t) =
    match ev with
    | Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate } ->
        Binio.add_u8 b 1;
        Binio.add_f64 b time;
        Binio.add_i64 b seq;
        Binio.add_i64 b id;
        Binio.add_i64 b ingress;
        Binio.add_i64 b egress;
        Binio.add_f64 b volume;
        Binio.add_f64 b ts;
        Binio.add_f64 b tf;
        Binio.add_f64 b max_rate
    | Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma } ->
        Binio.add_u8 b 2;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_i64 b ingress;
        Binio.add_i64 b egress;
        Binio.add_f64 b volume;
        Binio.add_f64 b ts;
        Binio.add_f64 b tf;
        Binio.add_f64 b max_rate;
        Binio.add_f64 b bw;
        Binio.add_f64 b sigma
    | Reject { time; id; reason; port; headroom } ->
        Binio.add_u8 b 3;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_str b reason;
        (match port with
        | None -> Binio.add_u8 b 0
        | Some (side, p) ->
            Binio.add_u8 b 1;
            add_side b side;
            Binio.add_i64 b p);
        (match headroom with
        | None -> Binio.add_u8 b 0
        | Some h ->
            Binio.add_u8 b 1;
            Binio.add_f64 b h)
    | Preempt { time; id; bw } ->
        Binio.add_u8 b 4;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_f64 b bw
    | Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised } ->
        Binio.add_u8 b 8;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_i64 b ingress;
        Binio.add_i64 b egress;
        Binio.add_f64 b volume;
        Binio.add_f64 b ts;
        Binio.add_f64 b tf;
        Binio.add_f64 b max_rate;
        Binio.add_i64 b (Array.length profile);
        Array.iter
          (fun (from_, until, rate) ->
            Binio.add_f64 b from_;
            Binio.add_f64 b until;
            Binio.add_f64 b rate)
          profile;
        Binio.add_i64 b (Array.length revised);
        Array.iter
          (fun (rid, segs) ->
            Binio.add_i64 b rid;
            Binio.add_i64 b (Array.length segs);
            Array.iter
              (fun (from_, until, rate) ->
                Binio.add_f64 b from_;
                Binio.add_f64 b until;
                Binio.add_f64 b rate)
              segs)
          revised
    | Shed { time; side; port; excess; victims } ->
        Binio.add_u8 b 5;
        Binio.add_f64 b time;
        add_side b side;
        Binio.add_i64 b port;
        Binio.add_f64 b excess;
        Binio.add_i64 b victims
    | Capacity { time; side; port; capacity } ->
        Binio.add_u8 b 6;
        Binio.add_f64 b time;
        add_side b side;
        Binio.add_i64 b port;
        Binio.add_f64 b capacity
    | Dispatch { time; pending } ->
        Binio.add_u8 b 7;
        Binio.add_f64 b time;
        Binio.add_i64 b pending

  (* Cursor-style reader over a body payload; any out-of-bounds read is
     reported as corruption (the frame CRC already vouched for the bytes,
     so a short body is a layout error, not a torn record). *)
  exception Short

  let decode_body s =
    let pos = ref 0 in
    let len = String.length s in
    let need n = if !pos + n > len then raise Short in
    let u8 () =
      need 1;
      let v = Binio.get_u8 s !pos in
      incr pos;
      v
    in
    let i64 () =
      need 8;
      let v = Binio.get_i64 s !pos in
      pos := !pos + 8;
      v
    in
    let f64 () =
      need 8;
      let v = Binio.get_f64 s !pos in
      pos := !pos + 8;
      v
    in
    let str () =
      need 4;
      let n = Binio.get_u32 s !pos in
      pos := !pos + 4;
      need n;
      let v = String.sub s !pos n in
      pos := !pos + n;
      v
    in
    let side () =
      match u8 () with
      | 0 -> Event.Ingress
      | 1 -> Event.Egress
      | n -> failwith (Printf.sprintf "unknown side code %d" n)
    in
    (* Decision records written by the retired sharded engine end in a
       [0x01 <i64 shard id>] trailer; it is read and dropped, so those
       journals still recover.  End-of-body is the current layout. *)
    let shard_trailer () =
      if !pos < len then
        match u8 () with
        | 1 -> ignore (i64 ())
        | n -> failwith (Printf.sprintf "unknown shard tag %d" n)
    in
    try
      let ev =
        match u8 () with
        | 1 ->
            let time = f64 () in
            let seq = i64 () in
            let id = i64 () in
            let ingress = i64 () in
            let egress = i64 () in
            let volume = f64 () in
            let ts = f64 () in
            let tf = f64 () in
            let max_rate = f64 () in
            Event.Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate }
        | 2 ->
            let time = f64 () in
            let id = i64 () in
            let ingress = i64 () in
            let egress = i64 () in
            let volume = f64 () in
            let ts = f64 () in
            let tf = f64 () in
            let max_rate = f64 () in
            let bw = f64 () in
            let sigma = f64 () in
            shard_trailer ();
            Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma }
        | 3 ->
            let time = f64 () in
            let id = i64 () in
            let reason = str () in
            let port =
              match u8 () with
              | 0 -> None
              | _ ->
                  let s = side () in
                  let p = i64 () in
                  Some (s, p)
            in
            let headroom = match u8 () with 0 -> None | _ -> Some (f64 ()) in
            shard_trailer ();
            Event.Reject { time; id; reason; port; headroom }
        | 4 ->
            let time = f64 () in
            let id = i64 () in
            let bw = f64 () in
            shard_trailer ();
            Event.Preempt { time; id; bw }
        | 8 ->
            let time = f64 () in
            let id = i64 () in
            let ingress = i64 () in
            let egress = i64 () in
            let volume = f64 () in
            let ts = f64 () in
            let tf = f64 () in
            let max_rate = f64 () in
            let triples () =
              let n = i64 () in
              if n < 0 then failwith "negative profile length";
              Array.init n (fun _ ->
                  let from_ = f64 () in
                  let until = f64 () in
                  let rate = f64 () in
                  (from_, until, rate))
            in
            let profile = triples () in
            let nrev = i64 () in
            if nrev < 0 then failwith "negative revision count";
            let revised =
              Array.init nrev (fun _ ->
                  let rid = i64 () in
                  let segs = triples () in
                  (rid, segs))
            in
            shard_trailer ();
            Event.Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised }
        | 5 ->
            let time = f64 () in
            let side = side () in
            let port = i64 () in
            let excess = f64 () in
            let victims = i64 () in
            Event.Shed { time; side; port; excess; victims }
        | 6 ->
            let time = f64 () in
            let side = side () in
            let port = i64 () in
            let capacity = f64 () in
            Event.Capacity { time; side; port; capacity }
        | 7 ->
            let time = f64 () in
            let pending = i64 () in
            Event.Dispatch { time; pending }
        | n -> failwith (Printf.sprintf "unknown event code %d" n)
      in
      if !pos <> len then Error "trailing bytes in event body" else Ok ev
    with
    | Short -> Error "event body too short"
    | Failure msg -> Error msg

  (* Bare body bytes, no frame — for embedding in an outer frame that
     supplies its own length and CRC (the WAL does this). *)
  let body_of ev =
    let b = Buffer.create 96 in
    encode_body b ev;
    Buffer.contents b

  let of_body = decode_body

  let encode b ev =
    let body = Buffer.create 96 in
    encode_body body ev;
    Frame.add b ~tag:frame_tag (Buffer.contents body)

  let decode s ~pos : t Codec.decoded =
    match Frame.decode s ~pos with
    | Incomplete -> Incomplete
    | Corrupt msg -> Corrupt msg
    | Value ((tag, body), next) ->
        if tag <> frame_tag then Corrupt (Printf.sprintf "unexpected frame tag %d" tag)
        else ( match decode_body body with Ok ev -> Value (ev, next) | Error msg -> Corrupt msg)
end
