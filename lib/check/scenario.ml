module Rng = Gridbw_prng.Rng
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Fault = Gridbw_fault.Fault

type family =
  | Hotspot_skew
  | Deadline_tight
  | Near_rigid
  | Revision_storm
  | Cross_shard_storm
  | Reshape_storm
  | Mixed

type t = {
  family : family;
  seed : int64;
  size : int;
  fabric : Fabric.t;
  requests : Request.t list;
  faults : Fault.event list;
}

let families =
  [ Hotspot_skew; Deadline_tight; Near_rigid; Revision_storm; Cross_shard_storm;
    Reshape_storm; Mixed ]

let family_name = function
  | Hotspot_skew -> "hotspot-skew"
  | Deadline_tight -> "deadline-tight"
  | Near_rigid -> "near-rigid"
  | Revision_storm -> "revision-storm"
  | Cross_shard_storm -> "cross-shard-storm"
  | Reshape_storm -> "reshape-storm"
  | Mixed -> "mixed"

let family_of_name n = List.find_opt (fun f -> family_name f = n) families

(* Route draw: with probability [hot], both endpoints go through port 0 —
   the funnel that makes one port the binding constraint. *)
let draw_port rng ~hot count =
  if count > 1 && Rng.float rng 1.0 < hot then 0 else Rng.int rng count

let random_request rng fabric ?(hot = 0.0) ?(slack_hi = 4.0) ~id () =
  let ingress = draw_port rng ~hot (Fabric.ingress_count fabric) in
  let egress = draw_port rng ~hot (Fabric.egress_count fabric) in
  let cap =
    Float.min (Fabric.ingress_capacity fabric ingress) (Fabric.egress_capacity fabric egress)
  in
  let ts = Rng.float_in rng 0. 50. in
  let dur = Rng.float_in rng 1. 50. in
  let min_rate = Rng.float_in rng (0.01 *. cap) (1.1 *. cap) in
  let slack = Rng.float_in rng 1.0 slack_hi in
  Request.make ~id ~ingress ~egress ~volume:(min_rate *. dur) ~ts ~tf:(ts +. dur)
    ~max_rate:(min_rate *. slack)

(* Hotspot pressure: with probability 0.65 the pair is forced onto
   ports 0 and 1, so those four counters carry most of the load. *)
let straddling_request rng fabric ~id =
  let ingress, egress =
    if Rng.float rng 1.0 < 0.65 then (if Rng.float rng 1.0 < 0.5 then (0, 1) else (1, 0))
    else (Rng.int rng (Fabric.ingress_count fabric), Rng.int rng (Fabric.egress_count fabric))
  in
  let cap =
    Float.min (Fabric.ingress_capacity fabric ingress) (Fabric.egress_capacity fabric egress)
  in
  let ts = Rng.float_in rng 0. 50. in
  let dur = Rng.float_in rng 1. 50. in
  let min_rate = Rng.float_in rng (0.05 *. cap) (0.9 *. cap) in
  let slack = Rng.float_in rng 1.0 3.0 in
  Request.make ~id ~ingress ~egress ~volume:(min_rate *. dur) ~ts ~tf:(ts +. dur)
    ~max_rate:(min_rate *. slack)

(* At least two ports per side keeps the hotspot pair drawable. *)
let cross_fabric rng =
  let caps n = Array.init n (fun _ -> Rng.float_in rng 60. 140.) in
  Fabric.make ~ingress:(caps (2 + Rng.int rng 3)) ~egress:(caps (2 + Rng.int rng 3))

(* Cancel-heavy: roughly a third of the transfers get pulled mid-window,
   exercising the release path on both ports of the hotspot pair. *)
let cancel_script rng requests =
  Fault.sort
    (List.filter_map
       (fun (r : Request.t) ->
         if Rng.float rng 1.0 < 0.35 then
           Some (Fault.Preempt { request_id = r.Request.id;
                                 at = Rng.float_in rng r.Request.ts r.Request.tf })
         else None)
       requests)

(* Reshape pressure: arrivals land in a handful of bursts whose transfer
   windows open a little after the burst itself, so a booking engine holds
   several admitted-but-not-yet-started profiles exactly when the burst's
   later members are decided — the pending set admission-time reshaping
   re-solves.  Slack in [1.3, 1.5] is wide enough that step profiles have
   room to bend yet tight enough that constant rates jam first. *)
let reshape_request rng fabric ~centre ~id =
  let ingress = draw_port rng ~hot:0.5 (Fabric.ingress_count fabric) in
  let egress = draw_port rng ~hot:0.5 (Fabric.egress_count fabric) in
  let cap =
    Float.min (Fabric.ingress_capacity fabric ingress) (Fabric.egress_capacity fabric egress)
  in
  let ts = Float.max 0. (centre +. Rng.float_in rng (-3.) 3.) in
  let dur = Rng.float_in rng 2. 20. in
  let min_rate = Rng.float_in rng (0.05 *. cap) (0.8 *. cap) in
  let slack = Rng.float_in rng 1.3 1.5 in
  Request.make ~id ~ingress ~egress ~volume:(min_rate *. dur) ~ts ~tf:(ts +. dur)
    ~max_rate:(min_rate *. slack)

let reshape_requests rng fabric ~size =
  let clusters = max 1 (size / 8) in
  let centres = Array.init clusters (fun _ -> Rng.float_in rng 10. 60.) in
  List.init size (fun id ->
      reshape_request rng fabric ~centre:centres.(Rng.int rng clusters) ~id)

let random_fabric rng =
  match Rng.int rng 4 with
  | 0 -> Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0
  | 1 -> Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:100.0
  | 2 -> Fabric.make ~ingress:[| 50.; 200.; 100. |] ~egress:[| 100.; 80. |]
  | _ ->
      let caps n = Array.init n (fun _ -> Rng.float_in rng 40. 160.) in
      Fabric.make ~ingress:(caps (1 + Rng.int rng 3)) ~egress:(caps (1 + Rng.int rng 3))

let requests_of rng fabric ~size ~hot ~slack_hi ~rigid_share =
  List.init size (fun id ->
      if Rng.float rng 1.0 < rigid_share then
        let r = random_request rng fabric ~hot ~slack_hi:1.0 ~id () in
        Request.make_rigid ~id ~ingress:r.Request.ingress ~egress:r.Request.egress
          ~bw:(Request.min_rate r) ~ts:r.Request.ts ~tf:r.Request.tf
      else random_request rng fabric ~hot ~slack_hi ~id ())

let storm_script rng fabric requests =
  let horizon = Float.max 1.0 (Fault.horizon_of_requests requests) in
  let spec = { Fault.mtbf = 30.; mean_outage = 15.; depth_lo = 0.0; depth_hi = 0.8 } in
  let degrades = Fault.generate (Rng.split rng) fabric ~horizon spec in
  let aborts = Fault.generate_aborts (Rng.split rng) ~fraction:0.08 requests in
  let preempts =
    List.filter_map
      (fun (r : Request.t) ->
        if Rng.float rng 1.0 < 0.08 then
          Some (Fault.Preempt { request_id = r.Request.id;
                                at = Rng.float_in rng r.Request.ts r.Request.tf })
        else None)
      requests
  in
  Fault.sort (degrades @ aborts @ preempts)

let generate ~family ~seed ~size =
  let rng = Rng.create ~seed () in
  let fabric =
    match family with Cross_shard_storm -> cross_fabric rng | _ -> random_fabric rng
  in
  let base ~hot ~slack_hi ~rigid_share =
    requests_of rng fabric ~size ~hot ~slack_hi ~rigid_share
  in
  let requests, faults =
    match family with
    | Hotspot_skew -> (base ~hot:0.7 ~slack_hi:4.0 ~rigid_share:0.2, [])
    | Deadline_tight -> (base ~hot:0.3 ~slack_hi:1.05 ~rigid_share:0.0, [])
    | Near_rigid -> (base ~hot:0.3 ~slack_hi:(1.0 +. 1e-9) ~rigid_share:0.5, [])
    | Revision_storm ->
        let reqs = base ~hot:0.4 ~slack_hi:3.0 ~rigid_share:0.2 in
        (reqs, storm_script rng fabric reqs)
    | Cross_shard_storm ->
        let reqs = List.init size (fun id -> straddling_request rng fabric ~id) in
        (reqs, cancel_script rng reqs)
    | Reshape_storm -> (reshape_requests rng fabric ~size, [])
    | Mixed -> (base ~hot:0.35 ~slack_hi:4.0 ~rigid_share:0.25, [])
  in
  { family; seed; size; fabric; requests; faults }

let with_requests t requests = { t with requests }
let with_faults t faults = { t with faults }

let scale_fabric2 fabric =
  Fabric.make
    ~ingress:(Array.init (Fabric.ingress_count fabric) (fun i -> 2. *. Fabric.ingress_capacity fabric i))
    ~egress:(Array.init (Fabric.egress_count fabric) (fun e -> 2. *. Fabric.egress_capacity fabric e))

let scale_request2 (r : Request.t) =
  Request.make ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
    ~volume:(2. *. r.Request.volume) ~ts:r.Request.ts ~tf:r.Request.tf
    ~max_rate:(2. *. r.Request.max_rate)

let scale2 t =
  {
    t with
    fabric = scale_fabric2 t.fabric;
    requests = List.map scale_request2 t.requests;
    (* Degrade factors are relative, abort/preempt times absolute: a fault
       script is scale-invariant as written. *)
  }

module Json = Gridbw_obs.Json

let side_to_json s = Json.Str (Fault.side_name s)

let side_of_json = function
  | Json.Str "ingress" -> Ok Fault.Ingress
  | Json.Str "egress" -> Ok Fault.Egress
  | _ -> Error "bad side"

let fault_to_json = function
  | Fault.Degrade { side; port; factor; from_; until } ->
      Json.Obj
        [ ("kind", Json.Str "degrade"); ("side", side_to_json side);
          ("port", Json.Num (float_of_int port)); ("factor", Json.Num factor);
          ("from", Json.Num from_); ("until", Json.Num until) ]
  | Fault.Abort { request_id; at } ->
      Json.Obj
        [ ("kind", Json.Str "abort"); ("id", Json.Num (float_of_int request_id));
          ("at", Json.Num at) ]
  | Fault.Preempt { request_id; at } ->
      Json.Obj
        [ ("kind", Json.Str "preempt"); ("id", Json.Num (float_of_int request_id));
          ("at", Json.Num at) ]

let faults_to_json events = Json.List (List.map fault_to_json events)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let req o name = match Json.member name o with Some v -> Ok v | None -> Error ("missing " ^ name)

let num o name =
  let* v = req o name in
  match Json.to_float v with Some f -> Ok f | None -> Error (name ^ " is not a number")

let int_field o name =
  let* v = req o name in
  match Json.to_int v with Some i -> Ok i | None -> Error (name ^ " is not an int")

let fault_of_json o =
  let* kind = req o "kind" in
  match Json.to_str kind with
  | Some "degrade" ->
      let* side = req o "side" in
      let* side = side_of_json side in
      let* port = int_field o "port" in
      let* factor = num o "factor" in
      let* from_ = num o "from" in
      let* until = num o "until" in
      Ok (Fault.Degrade { side; port; factor; from_; until })
  | Some "abort" ->
      let* request_id = int_field o "id" in
      let* at = num o "at" in
      Ok (Fault.Abort { request_id; at })
  | Some "preempt" ->
      let* request_id = int_field o "id" in
      let* at = num o "at" in
      Ok (Fault.Preempt { request_id; at })
  | _ -> Error "unknown fault kind"

let faults_of_json = function
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          let* events = acc in
          let* e = fault_of_json item in
          Ok (e :: events))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "fault script is not a list"

let pp ppf t =
  Format.fprintf ppf "%s scenario (seed %Ld): %d requests, %d fault events, %a"
    (family_name t.family) t.seed (List.length t.requests) (List.length t.faults) Fabric.pp
    t.fabric
