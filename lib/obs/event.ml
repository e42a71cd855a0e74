type side = Ingress | Egress

type t =
  | Arrival of {
      time : float;
      seq : int;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
    }
  | Accept of {
      time : float;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
      bw : float;
      sigma : float;
    }
  | Reject of {
      time : float;
      id : int;
      reason : string;
      port : (side * int) option;
      headroom : float option;
    }
  | Preempt of { time : float; id : int; bw : float }
  | Reshape of {
      time : float;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
      profile : (float * float * float) array;
      revised : (int * (float * float * float) array) array;
    }
  | Shed of { time : float; side : side; port : int; excess : float; victims : int }
  | Capacity of { time : float; side : side; port : int; capacity : float }
  | Dispatch of { time : float; pending : int }

let time = function
  | Arrival { time; _ }
  | Accept { time; _ }
  | Reject { time; _ }
  | Preempt { time; _ }
  | Reshape { time; _ }
  | Shed { time; _ }
  | Capacity { time; _ }
  | Dispatch { time; _ } -> time

let kind = function
  | Arrival _ -> "arrival"
  | Accept _ -> "accept"
  | Reject _ -> "reject"
  | Preempt _ -> "preempt"
  | Reshape _ -> "reshape"
  | Shed _ -> "shed"
  | Capacity _ -> "capacity"
  | Dispatch _ -> "dispatch"

let side_name = function Ingress -> "ingress" | Egress -> "egress"

let side_of_name = function
  | "ingress" -> Ok Ingress
  | "egress" -> Ok Egress
  | s -> Error ("unknown side " ^ s)

let profile_to_json segs =
  Json.List
    (Array.to_list segs
    |> List.map (fun (from_, until, rate) ->
           Json.List [ Json.Num from_; Json.Num until; Json.Num rate ]))

let to_json ev =
  let open Json in
  let num f = Num f and int i = Num (float_of_int i) in
  let fields =
    match ev with
    | Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate } ->
        [
          ("ev", Str "arrival"); ("t", num time); ("seq", int seq); ("id", int id);
          ("in", int ingress); ("out", int egress); ("vol", num volume);
          ("ts", num ts); ("tf", num tf); ("max", num max_rate);
        ]
    | Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma } ->
        [
          ("ev", Str "accept"); ("t", num time); ("id", int id);
          ("in", int ingress); ("out", int egress); ("vol", num volume);
          ("ts", num ts); ("tf", num tf); ("max", num max_rate);
          ("bw", num bw); ("sigma", num sigma);
        ]
    | Reject { time; id; reason; port; headroom } ->
        [ ("ev", Str "reject"); ("t", num time); ("id", int id); ("reason", Str reason) ]
        @ (match port with
          | Some (side, p) -> [ ("side", Str (side_name side)); ("port", int p) ]
          | None -> [])
        @ (match headroom with Some h -> [ ("headroom", num h) ] | None -> [])
    | Preempt { time; id; bw } ->
        [ ("ev", Str "preempt"); ("t", num time); ("id", int id); ("bw", num bw) ]
    | Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised } ->
        [
          ("ev", Str "reshape"); ("t", num time); ("id", int id);
          ("in", int ingress); ("out", int egress); ("vol", num volume);
          ("ts", num ts); ("tf", num tf); ("max", num max_rate);
          ("profile", profile_to_json profile);
          ( "revised",
            List
              (Array.to_list revised
              |> List.map (fun (rid, segs) ->
                     Obj [ ("id", int rid); ("profile", profile_to_json segs) ])) );
        ]
    | Shed { time; side; port; excess; victims } ->
        [
          ("ev", Str "shed"); ("t", num time); ("side", Str (side_name side));
          ("port", int port); ("excess", num excess); ("victims", int victims);
        ]
    | Capacity { time; side; port; capacity } ->
        [
          ("ev", Str "capacity"); ("t", num time); ("side", Str (side_name side));
          ("port", int port); ("cap", num capacity);
        ]
    | Dispatch { time; pending } ->
        [ ("ev", Str "dispatch"); ("t", num time); ("pending", int pending) ]
  in
  Json.to_string (Obj fields)

(* Field accessors for the parse direction, with uniform error text. *)
let ( let* ) r f = Result.bind r f

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let opt_field name conv json =
  match Json.member name json with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "malformed field %S" name))

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
      let* y = f x in
      let* rest = map_result f tl in
      Ok (y :: rest)

let profile_of_json = function
  | Json.List items ->
      let* segs =
        map_result
          (function
            | Json.List [ a; b; c ] -> (
                match (Json.to_float a, Json.to_float b, Json.to_float c) with
                | Some from_, Some until, Some rate -> Ok (from_, until, rate)
                | _ -> Error "malformed profile segment")
            | _ -> Error "malformed profile segment")
          items
      in
      Ok (Array.of_list segs)
  | _ -> Error "malformed profile"

let of_json json =
  let* ev = field "ev" Json.to_str json in
  let* time = field "t" Json.to_float json in
  match ev with
  | "arrival" ->
      let* seq = field "seq" Json.to_int json in
      let* id = field "id" Json.to_int json in
      let* ingress = field "in" Json.to_int json in
      let* egress = field "out" Json.to_int json in
      let* volume = field "vol" Json.to_float json in
      let* ts = field "ts" Json.to_float json in
      let* tf = field "tf" Json.to_float json in
      let* max_rate = field "max" Json.to_float json in
      Ok (Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate })
  | "accept" ->
      let* id = field "id" Json.to_int json in
      let* ingress = field "in" Json.to_int json in
      let* egress = field "out" Json.to_int json in
      let* volume = field "vol" Json.to_float json in
      let* ts = field "ts" Json.to_float json in
      let* tf = field "tf" Json.to_float json in
      let* max_rate = field "max" Json.to_float json in
      let* bw = field "bw" Json.to_float json in
      let* sigma = field "sigma" Json.to_float json in
      Ok (Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma })
  | "reject" ->
      let* id = field "id" Json.to_int json in
      let* reason = field "reason" Json.to_str json in
      let* side = opt_field "side" Json.to_str json in
      let* port = opt_field "port" Json.to_int json in
      let* headroom = opt_field "headroom" Json.to_float json in
      let* port =
        match (side, port) with
        | Some s, Some p ->
            let* s = side_of_name s in
            Ok (Some (s, p))
        | None, None -> Ok None
        | _ -> Error "reject: side and port must appear together"
      in
      Ok (Reject { time; id; reason; port; headroom })
  | "preempt" ->
      let* id = field "id" Json.to_int json in
      let* bw = field "bw" Json.to_float json in
      Ok (Preempt { time; id; bw })
  | "reshape" ->
      let* id = field "id" Json.to_int json in
      let* ingress = field "in" Json.to_int json in
      let* egress = field "out" Json.to_int json in
      let* volume = field "vol" Json.to_float json in
      let* ts = field "ts" Json.to_float json in
      let* tf = field "tf" Json.to_float json in
      let* max_rate = field "max" Json.to_float json in
      let* profile = field "profile" (fun j -> Some j) json in
      let* profile = profile_of_json profile in
      let* revised = field "revised" (fun j -> Some j) json in
      let* revised =
        match revised with
        | Json.List items ->
            let* pairs =
              map_result
                (fun item ->
                  let* rid = field "id" Json.to_int item in
                  let* segs = field "profile" (fun j -> Some j) item in
                  let* segs = profile_of_json segs in
                  Ok (rid, segs))
                items
            in
            Ok (Array.of_list pairs)
        | _ -> Error "malformed field \"revised\""
      in
      Ok (Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised })
  | "shed" ->
      let* side = field "side" Json.to_str json in
      let* side = side_of_name side in
      let* port = field "port" Json.to_int json in
      let* excess = field "excess" Json.to_float json in
      let* victims = field "victims" Json.to_int json in
      Ok (Shed { time; side; port; excess; victims })
  | "capacity" ->
      let* side = field "side" Json.to_str json in
      let* side = side_of_name side in
      let* port = field "port" Json.to_int json in
      let* capacity = field "cap" Json.to_float json in
      Ok (Capacity { time; side; port; capacity })
  | "dispatch" ->
      let* pending = field "pending" Json.to_int json in
      Ok (Dispatch { time; pending })
  | other -> Error ("unknown event kind " ^ other)

let of_line line =
  let* json = Json.parse line in
  of_json json

let pp ppf ev =
  match ev with
  | Arrival { time; id; ingress; egress; volume; ts; tf; max_rate; _ } ->
      Format.fprintf ppf "%12.3f arrival  r%d %d->%d vol=%.1fMB win=[%.2f,%.2f] max=%.1f" time id
        ingress egress volume ts tf max_rate
  | Accept { time; id; bw; sigma; _ } ->
      Format.fprintf ppf "%12.3f accept   r%d @ %.2fMB/s from %.3f" time id bw sigma
  | Reject { time; id; reason; port; headroom; _ } ->
      Format.fprintf ppf "%12.3f reject   r%d (%s)%a" time id reason
        (fun ppf -> function
          | Some (side, p), Some h ->
              Format.fprintf ppf " at %s %d, headroom %.2fMB/s" (side_name side) p h
          | Some (side, p), None -> Format.fprintf ppf " at %s %d" (side_name side) p
          | _ -> ())
        (port, headroom)
  | Preempt { time; id; bw; _ } ->
      Format.fprintf ppf "%12.3f preempt  r%d (held %.2fMB/s)" time id bw
  | Reshape { time; id; profile; revised; _ } ->
      Format.fprintf ppf "%12.3f reshape  r%d accepted (%d steps, %d pending revised)" time id
        (Array.length profile) (Array.length revised)
  | Shed { time; side; port; excess; victims } ->
      Format.fprintf ppf "%12.3f shed     %s %d excess=%.2fMB/s victims=%d" time (side_name side)
        port excess victims
  | Capacity { time; side; port; capacity } ->
      Format.fprintf ppf "%12.3f capacity %s %d -> %.2fMB/s" time (side_name side) port capacity
  | Dispatch { time; pending } ->
      Format.fprintf ppf "%12.3f dispatch (%d pending)" time pending
