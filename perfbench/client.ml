(* The socket load generator: one thread, [conns] pipelined Unix-socket
   connections speaking binary frames.

   [Open rate]: an open loop.  Operations fall due on a Poisson schedule
   and are sent when due whatever the daemon is doing, so a stall builds
   a queue; each latency runs from the instant the operation was due.
   [Window w]: each connection keeps [w] operations outstanding, so the
   daemon sees large rounds; an operation is due when its slot frees.

   Every response is checked against what the generator already knows
   (the op it answers, earlier acks of the same id); acked admits and
   cancels are journaled for the restart check; the generator's lateness
   against its own schedule is recorded. *)

module Protocol = Gridbw_serve.Protocol
module Serve_frame = Gridbw_serve.Frame
module Wire_frame = Gridbw_wire.Frame
module Json = Gridbw_obs.Json
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Validate = Gridbw_metrics.Validate
module Fabric = Gridbw_topology.Fabric

let now () = Int64.to_float (Monotonic_clock.now ())

type mode = Open of float | Window of int

type ack = { bw : float; sigma : float; tau : float }

let same_ack a b =
  Int64.equal (Int64.bits_of_float a.bw) (Int64.bits_of_float b.bw)
  && Int64.equal (Int64.bits_of_float a.sigma) (Int64.bits_of_float b.sigma)
  && Int64.equal (Int64.bits_of_float a.tau) (Int64.bits_of_float b.tau)

(* What the generator knew about a queried id when the query left. *)
type view = { known : ack option; cancel_sent : bool }

type pending = { op : Ops.op; due : float; view : view option; measured : bool }

(* Growable byte queue: appended at [len], drained from [pos]. *)
type conn = {
  fd : Unix.file_descr;
  mutable obuf : Bytes.t;
  mutable opos : int;
  mutable olen : int;
  mutable inbuf : string;
  mutable ipos : int;
  inflight : pending Queue.t;
  freed : float Queue.t;  (** when each free window slot was freed *)
  mutable closed : bool;
}

(* Float samples, grown by doubling. *)
type fvec = { mutable a : float array; mutable n : int }

let fvec () = { a = Array.make 4096 0.; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0. in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let sorted v =
  let a = Array.sub v.a 0 v.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank order statistic of a sorted array. *)
let rank a q =
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type state = {
  mutable mode : mode;
  mutable sched : Ops.schedule option;
  mutable t0 : float;  (** start of the current phase *)
  mutable measuring : bool;  (** latencies of this phase are the result *)
  slo_ns : float;
  conns : conn array;
  mutable rr : int;
  mutable sending : bool;
  cancels : (int * float) Queue.t;  (* id, due *)
  acked : (int, Request.t * ack) Hashtbl.t;
  cancel_sent : (int, unit) Hashtbl.t;
  cancel_acked : (int, unit) Hashtbl.t;
  acks_oc : out_channel;
  lat : fvec;
  late : fvec;
  mutable sent : int;
  mutable answered : int;
  mutable measured : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable queries : int;
  mutable cancel_ok : int;
  mutable errors : int;
  mutable check_failures : int;
  mutable slo_misses : int;
  mutable last_answer : float;
  mutable first_failure : string option;
}

let serve_tag = Char.code (Serve_frame.encode_binary "").[1]

let fail st msg =
  st.check_failures <- st.check_failures + 1;
  if st.first_failure = None then st.first_failure <- Some msg

let connect path =
  let deadline = now () +. 10e9 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let new_conn fd =
  {
    fd;
    obuf = Bytes.create 65536;
    opos = 0;
    olen = 0;
    inbuf = "";
    ipos = 0;
    inflight = Queue.create ();
    freed = Queue.create ();
    closed = false;
  }

let append c s =
  let n = String.length s in
  if c.olen + n > Bytes.length c.obuf then begin
    let live = c.olen - c.opos in
    let cap = ref (Bytes.length c.obuf) in
    while live + n > !cap do cap := 2 * !cap done;
    let b = if !cap = Bytes.length c.obuf then c.obuf else Bytes.create !cap in
    Bytes.blit c.obuf c.opos b 0 live;
    c.obuf <- b;
    c.opos <- 0;
    c.olen <- live
  end;
  Bytes.blit_string s 0 c.obuf c.olen n;
  c.olen <- c.olen + n

let flush_out c =
  if (not c.closed) && c.opos < c.olen then
    match Unix.write c.fd c.obuf c.opos (c.olen - c.opos) with
    | n ->
        c.opos <- c.opos + n;
        if c.opos = c.olen then begin
          c.opos <- 0;
          c.olen <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.closed <- true

let send st c op ~due =
  let view =
    match op with
    | Ops.Query id ->
        st.queries <- st.queries + 1;
        Some
          {
            known = Option.map snd (Hashtbl.find_opt st.acked id);
            cancel_sent = Hashtbl.mem st.cancel_sent id;
          }
    | Ops.Cancel id ->
        Hashtbl.replace st.cancel_sent id ();
        None
    | Ops.Admit _ -> None
  in
  let bytes = Serve_frame.encode_binary (Protocol.encode_request (Ops.protocol_of op)) in
  append c bytes;
  Queue.push { op; due; view; measured = st.measuring } c.inflight;
  st.sent <- st.sent + 1

let journal_admit st id a =
  Printf.fprintf st.acks_oc "A %d %Lx %Lx %Lx\n" id (Int64.bits_of_float a.bw)
    (Int64.bits_of_float a.sigma) (Int64.bits_of_float a.tau)

let check_status st id (v : view) = function
  | Protocol.Active { bw; sigma; tau } | Protocol.Done { bw; sigma; tau } -> (
      match v.known with
      | Some a when not (same_ack a { bw; sigma; tau }) ->
          fail st (Printf.sprintf "query %d: window differs from the acked admit" id)
      | _ -> ())
  | Protocol.Cancelled ->
      if v.known <> None && not v.cancel_sent then
        fail st (Printf.sprintf "query %d: cancelled but never cancelled" id)
  | Protocol.Unknown | Protocol.Refused _ ->
      if v.known <> None then fail st (Printf.sprintf "query %d: acked admit not found" id)

let on_response st p resp ~at =
  st.answered <- st.answered + 1;
  let lat = at -. p.due in
  if p.measured then begin
    st.measured <- st.measured + 1;
    st.last_answer <- at;
    push st.lat lat
  end;
  let ok = ref true in
  let bad msg =
    ok := false;
    fail st msg
  in
  (match (p.op, resp) with
  | Ops.Admit r, Protocol.Admitted { id; bw; sigma; tau } when id = r.Request.id ->
      let a = { bw; sigma; tau } in
      Hashtbl.replace st.acked id (r, a);
      journal_admit st id a;
      st.admitted <- st.admitted + 1;
      if st.sending && st.admitted mod Ops.cancel_every = 0 then Queue.push (id, at) st.cancels
  | Ops.Admit r, Protocol.Rejected { id; _ } when id = r.Request.id ->
      st.rejected <- st.rejected + 1
  | Ops.Query q, Protocol.Status { id; disposition } when id = q ->
      check_status st id (Option.get p.view) disposition
  | Ops.Cancel c, Protocol.Cancel_ok { id } when id = c ->
      Hashtbl.replace st.cancel_acked id ();
      Printf.fprintf st.acks_oc "C %d\n" id;
      st.cancel_ok <- st.cancel_ok + 1
  | Ops.Cancel c, Protocol.Cancel_failed { id; _ } when id = c -> () (* already finished *)
  | _, Protocol.Error { message; _ } ->
      st.errors <- st.errors + 1;
      bad ("error response: " ^ message)
  | _, r -> bad (Format.asprintf "response does not answer its request: %a" Protocol.pp_response r));
  if p.measured && ((not !ok) || lat > st.slo_ns) then st.slo_misses <- st.slo_misses + 1

(* Small reads keep the loop back at its schedule between bursts of
   responses. *)
let scratch = Bytes.create 16384

(* Outstanding requests per connection while prefilling. *)
let prefill_window = 64

let read_conn st c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> c.closed <- true
  | n ->
      let at = now () in
      c.inbuf <-
        String.sub c.inbuf c.ipos (String.length c.inbuf - c.ipos) ^ Bytes.sub_string scratch 0 n;
      c.ipos <- 0;
      let rec decode () =
        match Wire_frame.decode c.inbuf ~pos:c.ipos with
        | Gridbw_wire.Codec.Incomplete -> ()
        | Gridbw_wire.Codec.Corrupt msg ->
            fail st ("corrupt frame: " ^ msg);
            c.closed <- true
        | Gridbw_wire.Codec.Value ((tag, payload), next) ->
            c.ipos <- next;
            if tag <> serve_tag then begin
              fail st "unexpected frame tag";
              c.closed <- true
            end
            else if Queue.is_empty c.inflight then begin
              fail st "response without a request";
              c.closed <- true
            end
            else begin
              let p = Queue.pop c.inflight in
              Queue.push at c.freed;
              (match Protocol.decode_response payload with
              | Ok resp -> on_response st p resp ~at
              | Error e ->
                  st.answered <- st.answered + 1;
                  if p.measured then st.slo_misses <- st.slo_misses + 1;
                  fail st ("undecodable response: " ^ Protocol.describe_decode_error e));
              decode ()
            end
      in
      decode ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.closed <- true

let outstanding st = Array.fold_left (fun n c -> if c.closed then n else n + Queue.length c.inflight) 0 st.conns

(* Send every operation due by [t]. *)
let send_due st ops ~t =
  match st.mode with
  | Open _ ->
      let s = Option.get st.sched in
      while st.sending && st.t0 +. s.Ops.due <= t do
        let due = st.t0 +. Ops.next_due s in
        let c = st.conns.(st.rr) in
        st.rr <- (st.rr + 1) mod Array.length st.conns;
        if st.measuring then push st.late (t -. due);
        send st c (Ops.next ops) ~due
      done;
      while not (Queue.is_empty st.cancels) do
        let id, due = Queue.pop st.cancels in
        let c = st.conns.(st.rr) in
        st.rr <- (st.rr + 1) mod Array.length st.conns;
        send st c (Ops.Cancel id) ~due
      done
  | Window w ->
      (* a request is due when its slot frees; the first [w] at once *)
      Array.iter
        (fun c ->
          while st.sending && (not c.closed) && Queue.length c.inflight < w do
            let due = if Queue.is_empty c.freed then t else Queue.pop c.freed in
            if st.measuring then push st.late (t -. due);
            if Queue.is_empty st.cancels then send st c (Ops.next ops) ~due
            else send st c (Ops.Cancel (fst (Queue.pop st.cancels))) ~due
          done;
          Queue.clear c.freed)
        st.conns

(* One blocking [stats] exchange on [c], between phases (nothing in
   flight): the daemon's Prometheus counters. *)
let stats_counters c =
  Unix.clear_nonblock c.fd;
  let frame = Serve_frame.encode_binary (Protocol.encode_request Protocol.Stats) in
  ignore (Unix.write_substring c.fd frame 0 (String.length frame));
  let rec read acc =
    match Wire_frame.decode acc ~pos:0 with
    | Gridbw_wire.Codec.Value ((_, payload), _) -> Protocol.decode_response payload
    | Gridbw_wire.Codec.Corrupt m -> Error (Protocol.Bad_json_e m)
    | Gridbw_wire.Codec.Incomplete ->
        let n = Unix.read c.fd scratch 0 (Bytes.length scratch) in
        if n = 0 then Error (Protocol.Bad_json_e "eof") else read (acc ^ Bytes.sub_string scratch 0 n)
  in
  let r = read "" in
  Unix.set_nonblock c.fd;
  match r with
  | Ok (Protocol.Stats_text text) ->
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ name; v ] when String.length name > 0 && name.[0] <> '#' ->
              Option.map (fun f -> (name, f)) (float_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' text)
  | _ -> []

let counters st =
  match List.find_opt (fun c -> not c.closed) (Array.to_list st.conns) with
  | Some c -> ( try stats_counters c with Unix.Unix_error _ -> [])
  | None -> []

(* Validate.check over the acked admissions that were not cancelled. *)
let validate st =
  let survivors = ref [] and bad = ref 0 in
  Hashtbl.iter
    (fun id (r, a) ->
      if not (Hashtbl.mem st.cancel_acked id) then begin
        let alloc = Allocation.make ~request:r ~bw:a.bw ~sigma:a.sigma in
        if not (Int64.equal (Int64.bits_of_float alloc.Allocation.tau) (Int64.bits_of_float a.tau))
        then incr bad;
        survivors := alloc :: !survivors
      end)
    st.acked;
  let violations = Validate.check (Fabric.paper_default ()) !survivors in
  if !bad > 0 then fail st (Printf.sprintf "%d acked admits carry a tau their window does not give" !bad);
  if violations <> [] then
    fail st (Printf.sprintf "Validate.check: %d violations" (List.length violations));
  (List.length !survivors, !bad + List.length violations)

(* One phase: send in [mode] for [seconds] or until [max_ops] are sent,
   then wait for every answer. *)
let phase st ops ~mode ~seed ~seconds ~max_ops ~measuring =
  st.mode <- mode;
  st.sched <- (match mode with Open rate -> Some (Ops.schedule ~seed ~rate) | Window _ -> None);
  (match mode with
  | Open rate -> Ops.prepare ops (int_of_float (rate *. seconds *. 1.1) + 1000)
  | Window _ -> Ops.prepare ops (min max_ops 1_000_000));
  st.measuring <- measuring;
  st.sending <- true;
  st.t0 <- now ();
  let send_end = st.t0 +. (seconds *. 1e9) and sent0 = st.sent in
  let continue = ref true and drain_end = ref infinity in
  while !continue do
    let t = now () in
    if st.sending && (t >= send_end || st.sent - sent0 >= max_ops) then begin
      st.sending <- false;
      drain_end := t +. 60e9
    end;
    send_due st ops ~t;
    Array.iter flush_out st.conns;
    let live = List.filter (fun c -> not c.closed) (Array.to_list st.conns) in
    if (not st.sending) && (outstanding st = 0 || t >= !drain_end || live = []) then
      continue := false
    else begin
      let timeout =
        match st.sched with
        | Some s when st.sending -> Float.max 0. (Float.min 2e6 (st.t0 +. s.Ops.due -. t)) /. 1e9
        | _ -> 0.002
      in
      let writers = List.filter (fun c -> c.opos < c.olen) live in
      match
        Unix.select (List.map (fun c -> c.fd) live) (List.map (fun c -> c.fd) writers) [] timeout
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, w, _ ->
          List.iter (fun c -> if List.mem c.fd w then flush_out c) writers;
          List.iter
            (fun c ->
              if List.mem c.fd r then begin
                read_conn st c;
                send_due st ops ~t:(now ())
              end)
            live
    end
  done

let run ~socket ~conns ~mode ~seconds ~max_ops ~seed ~slo_ms ~acks ~prefill ~validate:do_validate =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st =
    {
      mode;
      sched = None;
      t0 = 0.;
      measuring = false;
      slo_ns = slo_ms *. 1e6;
      conns = Array.init conns (fun _ -> new_conn (connect socket));
      rr = 0;
      sending = false;
      cancels = Queue.create ();
      acked = Hashtbl.create 65536;
      cancel_sent = Hashtbl.create 1024;
      cancel_acked = Hashtbl.create 1024;
      acks_oc = open_out acks;
      lat = fvec ();
      late = fvec ();
      sent = 0;
      answered = 0;
      measured = 0;
      admitted = 0;
      rejected = 0;
      queries = 0;
      cancel_ok = 0;
      errors = 0;
      check_failures = 0;
      slo_misses = 0;
      last_answer = 0.;
      first_failure = None;
    }
  in
  Array.iter (fun c -> Unix.set_nonblock c.fd) st.conns;
  let ops = Ops.create ~seed in
  (* prefill: the head of the same stream, as fast as the daemon takes it *)
  let before =
    if prefill = 0 then []
    else begin
      phase st ops ~mode:(Window prefill_window) ~seed ~seconds:infinity ~max_ops:prefill ~measuring:false;
      counters st
    end
  in
  phase st ops ~mode ~seed ~seconds ~max_ops ~measuring:true;
  let missing = Array.fold_left (fun n c -> n + Queue.length c.inflight) 0 st.conns in
  if missing > 0 then fail st (Printf.sprintf "%d requests never answered" missing);
  let after = counters st in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  close_out st.acks_oc;
  let validated = if do_validate then Some (validate st) else None in
  if st.answered <> st.sent then
    fail st (Printf.sprintf "answered %d of %d sent" st.answered st.sent);
  let lat = sorted st.lat and late = sorted st.late in
  let wall = (st.last_answer -. st.t0) /. 1e9 in
  let counter name = Option.value ~default:0. (List.assoc_opt name after) in
  (* measured phase only; each stats request is itself counted *)
  let delta name = counter name -. Option.value ~default:0. (List.assoc_opt name before) in
  let stats_requests = if before = [] then 1. else 2. in
  let num f = Json.Num f and int i = Json.Num (float_of_int i) in
  let failed = st.check_failures + missing in
  Json.Obj
    [
      ("sent", int st.sent);
      ("answered", int st.answered);
      ("measured", int st.measured);
      ("admitted", int st.admitted);
      ("rejected", int st.rejected);
      ("queries", int st.queries);
      ("cancel_ok", int st.cancel_ok);
      ("errors", int st.errors);
      ("missing", int missing);
      ("failed", int failed);
      ("first_failure", match st.first_failure with Some m -> Json.Str m | None -> Json.Null);
      ("wall_s", num wall);
      ("throughput_rps", num (float_of_int st.measured /. wall));
      ("ack_p50_us", num (rank lat 0.5 /. 1e3));
      ("ack_p99_us", num (rank lat 0.99 /. 1e3));
      ("ack_max_us", num (rank lat 1.0 /. 1e3));
      ("slo_misses", int st.slo_misses);
      ("late_p99_us", num (rank late 0.99 /. 1e3));
      ("late_max_us", num (rank late 1.0 /. 1e3));
      ( "validated",
        match validated with
        | Some (n, v) -> Json.Obj [ ("survivors", int n); ("violations", int v) ]
        | None -> Json.Null );
      ("daemon_requests", num (counter "serve_requests_total" -. stats_requests));
      ("phase_requests", num (delta "serve_requests_total" -. 1.));
      ("phase_flushes", num (delta "serve_flushes_total"));
      ("daemon_protocol_errors", num (counter "serve_protocol_errors_total"));
      ("daemon_fsyncs", num (counter "store_fsync_total"));
      ("daemon_snapshots", num (counter "store_snapshots_total"));
    ]
