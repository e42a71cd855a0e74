(* The traced run: per-layer numbers, measured from outside by timing
   calls into each layer's public functions.

   1. Replay: the workload's request stream (the first [ops] operations,
      cancels added by the same every-50th-admitted rule) goes through
      the daemon's pipeline in-process and in the daemon's order, [round]
      requests per round: frame decode, protocol decode and
      Admission.handle per request, one Admission.flush per round, then
      reply encoding per request.  A store is attached, on the real disk.
      Where the daemon's store would snapshot (every 4 MiB of WAL), the
      replay calls Admission.snapshot itself after the round, so the
      snapshot is a span of its own.  The replay runs twice, untraced and
      traced; the difference is the tracing overhead.
   2. Read side, on the replay's store: Wal.scan, Store.recover,
      Admission.of_recovered, Reference.audit_allocations.
   3. Decide: the replay's admits and cancels again on a bare
      Online controller (no store), timing each Online.try_admit.
   4. Engines: WINDOW, GREEDY and MALLEABLE on the head of the stream,
      sized as in the batch-engines workload.

   Spans live in memory (name, start, end, parent; the spans of one
   request share its id) and are written out at the end. *)

module Store = Gridbw_store.Store
module Wal = Gridbw_store.Wal
module Admission = Gridbw_serve.Admission
module Protocol = Gridbw_serve.Protocol
module Serve_frame = Gridbw_serve.Frame
module Online = Gridbw_core.Online
module Runtime = Gridbw_core.Runtime
module Types = Gridbw_core.Types
module Flexible = Gridbw_core.Flexible
module Malleable = Gridbw_malleable.Malleable
module Ledger = Gridbw_alloc.Ledger
module Allocation = Gridbw_alloc.Allocation
module Request = Gridbw_request.Request
module Reference = Gridbw_check.Reference
module Event = Gridbw_obs.Event
module Obs = Gridbw_obs.Obs
module Metrics = Gridbw_obs.Metrics
module Fabric = Gridbw_topology.Fabric
module Json = Gridbw_obs.Json

let now = Client.now

(* --- spans --- *)

type layer = Round | Frame_decode | Protocol_decode | Admission_handle | Store_flush | Store_snapshot | Reply_encode

let layers = [ Round; Frame_decode; Protocol_decode; Admission_handle; Store_flush; Store_snapshot; Reply_encode ]

let layer_name = function
  | Round -> "round"
  | Frame_decode -> "serve.frame_decode"
  | Protocol_decode -> "serve.protocol_decode"
  | Admission_handle -> "serve.admission_handle"
  | Store_flush -> "store.flush"
  | Store_snapshot -> "store.snapshot"
  | Reply_encode -> "serve.reply_encode"

let layer_index l =
  let rec go i = function [] -> assert false | x :: r -> if x = l then i else go (i + 1) r in
  go 0 layers

type spans = {
  on : bool;
  mutable n : int;
  mutable layer : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable start : float array;
  mutable stop : float array;
}

let spans on = { on; n = 0; layer = [||]; parent = [||]; req = [||]; start = [||]; stop = [||] }

let grow sp =
  let cap = max 1024 (2 * Array.length sp.layer) in
  let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
  sp.layer <- ext sp.layer 0;
  sp.parent <- ext sp.parent 0;
  sp.req <- ext sp.req 0;
  sp.start <- ext sp.start 0.;
  sp.stop <- ext sp.stop 0.

(* Open a span now; -1 when tracing is off. *)
let enter sp layer ~parent ~req =
  if not sp.on then -1
  else begin
    if sp.n = Array.length sp.layer then grow sp;
    let i = sp.n in
    sp.n <- i + 1;
    sp.layer.(i) <- layer_index layer;
    sp.parent.(i) <- parent;
    sp.req.(i) <- req;
    sp.start.(i) <- now ();
    i
  end

let leave sp i = if i >= 0 then sp.stop.(i) <- now ()
let dur sp i = sp.stop.(i) -. sp.start.(i)

(* Synced before returning, so the file's writeback does not land in the
   next measurement. *)
let write_spans sp path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "span\tparent\tname\trequest\tstart_ns\tend_ns\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%.0f\t%.0f\n" i sp.parent.(i)
      (layer_name (List.nth layers sp.layer.(i)))
      sp.req.(i) sp.start.(i) sp.stop.(i)
  done;
  flush oc;
  Unix.fsync fd;
  close_out oc

(* --- 1. the replay --- *)

let snapshot_every = Store.default_config.Store.snapshot_bytes

let file_bytes dir prefix =
  Array.fold_left
    (fun acc f ->
      if String.length f > String.length prefix && String.sub f 0 (String.length prefix) = prefix
      then acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

type replay = {
  wall_ns : float;
  sp : spans;
  decided : [ `Admit of Request.t | `Cancel of Request.t ] list;  (** decide-pass input, in order *)
  ops_done : int;
  admit_handle_ns : float;  (** summed over admits *)
  admits : int;
  commit_wait_ns : float;  (** summed over requests *)
  snapshot_bytes : int;
  snapshots : int;
  request_bytes : int;
  response_bytes : int;
}

let replay ~seed ~ops ~round ~dir ~traced =
  let fabric = Fabric.paper_default () in
  let config = { Store.default_config with Store.snapshot_bytes = max_int } in
  let store = Store.create ~config ~dir fabric in
  let adm = Admission.create ~store ~policy:Batch.policy fabric in
  let dec = Serve_frame.decoder () in
  let stream = Ops.create ~seed in
  let sp = spans traced in
  let cancels = Queue.create () and by_id = Hashtbl.create 4096 in
  let decided = ref [] and admitted = ref 0 and drawn = ref 0 and seq = ref 0 in
  let admit_handle = ref 0. and admits = ref 0 and commit_wait = ref 0. in
  let last_snap_wal = ref 0 and snap_bytes = ref 0 and snaps = ref 0 in
  let req_bytes = ref 0 and resp_bytes = ref 0 in
  let t0 = now () in
  while !drawn < ops || not (Queue.is_empty cancels) do
    (* client side, outside the round: the round's request frames *)
    let batch = ref [] and size = ref 0 in
    while !size < round && (!drawn < ops || not (Queue.is_empty cancels)) do
      let op =
        if Queue.is_empty cancels then begin
          incr drawn;
          Ops.next stream
        end
        else Ops.Cancel (Queue.pop cancels)
      in
      let bytes = Serve_frame.encode_binary (Protocol.encode_request (Ops.protocol_of op)) in
      req_bytes := !req_bytes + String.length bytes;
      batch := (!seq, op, bytes) :: !batch;
      incr size;
      incr seq
    done;
    let batch = List.rev !batch in
    let root = enter sp Round ~parent:(-1) ~req:(-1) in
    let handled =
      List.map
        (fun (id, op, bytes) ->
          let s = enter sp Frame_decode ~parent:root ~req:id in
          Serve_frame.feed dec bytes;
          let payload =
            match Serve_frame.next dec with Ok (Some p) -> p | _ -> failwith "replay: frame did not decode"
          in
          leave sp s;
          let s = enter sp Protocol_decode ~parent:root ~req:id in
          let req =
            match Protocol.decode_request payload with Ok r -> r | Error _ -> failwith "replay: bad request"
          in
          leave sp s;
          let s = enter sp Admission_handle ~parent:root ~req:id in
          let resp = Admission.handle adm req in
          leave sp s;
          (match op with
          | Ops.Admit _ when traced ->
              admit_handle := !admit_handle +. dur sp s;
              incr admits
          | _ -> ());
          (id, op, resp, s))
        batch
    in
    if Admission.dirty adm then begin
      let s = enter sp Store_flush ~parent:root ~req:(-1) in
      Admission.flush adm;
      leave sp s;
      if traced then
        List.iter (fun (_, _, _, h) -> commit_wait := !commit_wait +. (sp.stop.(s) -. sp.stop.(h))) handled
    end;
    List.iter
      (fun (id, _, resp, _) ->
        let s = enter sp Reply_encode ~parent:root ~req:id in
        let bytes = Serve_frame.encode_binary (Protocol.encode_response resp) in
        leave sp s;
        resp_bytes := !resp_bytes + String.length bytes)
      handled;
    leave sp root;
    (* the daemon's snapshot cadence, checked between rounds *)
    let wal = file_bytes dir "wal-" in
    if wal - !last_snap_wal >= snapshot_every then begin
      let before = file_bytes dir "snap-" in
      let root = enter sp Round ~parent:(-1) ~req:(-1) in
      let s = enter sp Store_snapshot ~parent:root ~req:(-1) in
      Admission.snapshot adm;
      leave sp s;
      leave sp root;
      last_snap_wal := wal;
      incr snaps;
      snap_bytes := !snap_bytes + max 0 (file_bytes dir "snap-" - before)
    end;
    List.iter
      (fun (_, op, resp, _) ->
        match (op, resp) with
        | Ops.Admit r, Protocol.Admitted _ ->
            decided := `Admit r :: !decided;
            Hashtbl.replace by_id r.Request.id r;
            incr admitted;
            if !admitted mod Ops.cancel_every = 0 then Queue.push r.Request.id cancels
        | Ops.Admit r, _ -> decided := `Admit r :: !decided
        | Ops.Cancel id, Protocol.Cancel_ok _ -> decided := `Cancel (Hashtbl.find by_id id) :: !decided
        | _ -> ())
      handled
  done;
  let wall_ns = now () -. t0 in
  Admission.close adm;
  {
    wall_ns;
    sp;
    decided = List.rev !decided;
    ops_done = !seq;
    admit_handle_ns = !admit_handle;
    admits = !admits;
    commit_wait_ns = !commit_wait;
    snapshot_bytes = !snap_bytes;
    snapshots = !snaps;
    request_bytes = !req_bytes;
    response_bytes = !resp_bytes;
  }

(* --- 3. the bare decision --- *)

let decide_pass decided =
  let ctl = Online.create (Fabric.paper_default ()) in
  let booked = Hashtbl.create 4096 in
  let total = ref 0. and n = ref 0 in
  List.iter
    (function
      | `Admit (r : Request.t) -> (
          let at = Float.max (Online.now ctl) r.ts in
          let t = now () in
          let d = Online.try_admit ctl Batch.policy r ~at in
          total := !total +. (now () -. t);
          incr n;
          match d with Types.Accepted a -> Hashtbl.replace booked r.id a | Types.Rejected _ -> ())
      | `Cancel (r : Request.t) ->
          Option.iter (fun a -> ignore (Online.preempt ctl a)) (Hashtbl.find_opt booked r.id))
    decided;
  !total /. float_of_int (max 1 !n)

(* --- 4. the engines --- *)

let engines_pass ~seed =
  let fabric = Fabric.paper_default () in
  let jobs = Batch.inputs ~seed in
  let per_req name =
    let mine = List.filter (fun ((e : Batch.engine), _) -> e.name = name) jobs in
    let n = List.fold_left (fun s (_, reqs) -> s + List.length reqs) 0 mine in
    Batch.median
      (List.init 5 (fun _ ->
           let t = now () in
           List.iter (fun ((e : Batch.engine), reqs) -> ignore (Sys.opaque_identity (e.run reqs))) mine;
           (now () -. t) /. float_of_int n))
  in
  let window_ns = per_req "window" and greedy_ns = per_req "greedy" and malleable_ns = per_req "malleable" in
  (* WINDOW's packing kernel on a ledger of our own, for its probe count *)
  let window_reqs = snd (List.find (fun ((e : Batch.engine), _) -> e.name = "window") jobs) in
  let ledger = Ledger.create fabric and decisions = ref 0 in
  List.iter
    (fun (_, batch) ->
      Flexible.pack_batch Batch.policy ledger ~decide:(fun _ _ -> incr decisions) batch)
    (Flexible.batches ~step:Batch.window_step window_reqs);
  let probes = float_of_int (Ledger.probe_count ledger) /. float_of_int (max 1 !decisions) in
  (* MALLEABLE with telemetry on, for its reshape counters *)
  let commits = ref 0 and rejects = ref 0 in
  List.iter
    (fun ((e : Batch.engine), reqs) ->
      if e.name = "malleable" then begin
        let obs = Obs.create () in
        let res = Malleable.run Malleable.default ~ctx:(Runtime.make ~obs ()) fabric reqs in
        commits := !commits + Metrics.value (Metrics.counter (Obs.metrics obs) "reshape_commits_total");
        rejects := !rejects + List.length res.Types.rejected
      end)
    jobs;
  let adopt = float_of_int !commits /. float_of_int (max 1 (!commits + !rejects)) in
  (window_ns, greedy_ns, malleable_ns, probes, adopt)

(* --- the subcommand --- *)

let run ~seed ~ops ~round ~dir ~spans:spans_path =
  let plain = replay ~seed ~ops ~round ~dir:(Filename.concat dir "untraced") ~traced:false in
  let r = replay ~seed ~ops ~round ~dir:(Filename.concat dir "traced") ~traced:true in
  let sp = r.sp in
  write_spans sp spans_path;
  (* self time per layer: a span's duration minus its children's *)
  let children = Array.make sp.n 0. in
  for i = 0 to sp.n - 1 do
    if sp.parent.(i) >= 0 then children.(sp.parent.(i)) <- children.(sp.parent.(i)) +. dur sp i
  done;
  let nl = List.length layers in
  let self = Array.make nl 0. and count = Array.make nl 0 and total = Array.make nl 0. in
  let flushes = ref [] in
  for i = 0 to sp.n - 1 do
    let l = sp.layer.(i) in
    self.(l) <- self.(l) +. dur sp i -. children.(i);
    total.(l) <- total.(l) +. dur sp i;
    count.(l) <- count.(l) + 1;
    if l = layer_index Store_flush then flushes := dur sp i :: !flushes
  done;
  let mean l = total.(layer_index l) /. float_of_int (max 1 count.(layer_index l)) in
  let root = layer_index Round in
  let covered = ref 0. in
  Array.iteri (fun l s -> if l <> root then covered := !covered +. s) self;
  let flushes = Array.of_list !flushes in
  Array.sort Float.compare flushes;
  (* 2. read side *)
  let tdir = Filename.concat dir "traced" in
  let timed f =
    let t = now () in
    let x = f () in
    (x, (now () -. t) /. 1e6)
  in
  let _, wal_scan_ms = timed (fun () -> Wal.scan ~dir:tdir) in
  let recovered, recover_ms = timed (fun () -> Store.recover ~dir:tdir ()) in
  let rc = match recovered with Ok rc -> rc | Error e -> failwith ("trace: recover: " ^ e) in
  let adm, of_recovered_ms = timed (fun () -> Admission.of_recovered ~policy:Batch.policy rc) in
  (match adm with Ok a -> Admission.close a | Error e -> failwith ("trace: of_recovered: " ^ e));
  let preempted = Hashtbl.create 1024 in
  List.iter (function Event.Preempt { id; _ } -> Hashtbl.replace preempted id () | _ -> ()) rc.Store.events;
  let survivors =
    List.filter_map
      (fun (_, (a : Allocation.t)) ->
        if Hashtbl.mem preempted a.request.Request.id then None else Some a)
      rc.Store.accepted
  in
  let violations, audit_ms = timed (fun () -> Reference.audit_allocations rc.Store.initial_fabric survivors) in
  if violations <> [] then failwith "trace: the replay's journal fails the reference audit";
  (* 3 and 4 *)
  let decide_ns = decide_pass r.decided in
  let window_ns, greedy_ns, malleable_ns, probes, adopt = engines_pass ~seed in
  let n = float_of_int r.ops_done in
  let wal_bytes = file_bytes tdir "wal-" in
  let num f = Json.Num f in
  Json.Obj
    ([
       ("serve.frame_decode_ns", num (mean Frame_decode));
       ("serve.protocol_decode_ns", num (mean Protocol_decode));
       ("serve.reply_encode_ns", num (mean Reply_encode));
       ("serve.request_bytes", num (float_of_int r.request_bytes /. n));
       ("serve.response_bytes", num (float_of_int r.response_bytes /. n));
       ("serve.admission_handle_ns", num (mean Admission_handle));
       ("serve.of_recovered_ms", num of_recovered_ms);
       ("core.decide_ns", num decide_ns);
       ("core.window_ns_per_req", num window_ns);
       ("core.greedy_ns_per_req", num greedy_ns);
       ("alloc.probes_per_decision", num probes);
       ("malleable.ns_per_req", num malleable_ns);
       ("malleable.reshape_adopt_ratio", num adopt);
       ("store.flush_p50_ns", num (Client.rank flushes 0.5));
       ("store.flush_p99_ns", num (Client.rank flushes 0.99));
       ("store.append_ns", num ((r.admit_handle_ns /. float_of_int (max 1 r.admits)) -. decide_ns));
       ("store.commit_wait_us", num (r.commit_wait_ns /. n /. 1e3));
       ("store.snapshot_ms", num (mean Store_snapshot /. 1e6));
       ("store.snapshot_bytes_per_req", num (float_of_int r.snapshot_bytes /. n));
       ("store.wal_bytes_per_req", num (float_of_int wal_bytes /. n));
       ("store.recover_ms", num recover_ms);
       ("store.wal_scan_ms", num wal_scan_ms);
       ("check.audit_ms", num audit_ms);
       ("trace.coverage", num (!covered /. total.(root)));
       ("trace.overhead_s", num ((r.wall_ns -. plain.wall_ns) /. 1e9));
       ("trace.replay_s", num (plain.wall_ns /. 1e9));
       ("trace.ops", num n);
       ("trace.snapshots", num (float_of_int r.snapshots));
     ]
    @ List.mapi
        (fun l layer -> ("trace.self_ms." ^ layer_name layer, num (self.(l) /. 1e6)))
        layers)
