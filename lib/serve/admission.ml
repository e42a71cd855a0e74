(* The daemon's admission state machine.  See admission.mli. *)

module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Metrics = Gridbw_obs.Metrics
module Span = Gridbw_obs.Span
module Store = Gridbw_store.Store
module Runtime = Gridbw_core.Runtime
module Online = Gridbw_core.Online
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Reference = Gridbw_check.Reference

type entry =
  | Booked of Allocation.t
  | Refused of string
  | Cancelled of Allocation.t  (** was booked, then preempted by a cancel *)

type t = {
  ctl : Online.t;
  policy : Policy.t;
  obs : Obs.ctx;  (** merged with the store's journaling sink when one is attached *)
  store : Store.t option;
  entries : (int, entry) Hashtbl.t;
  mutable seq : int;  (** Arrival events emitted so far (journal replay order) *)
  mutable dirty : bool;
  mutable accepted : int;
  mutable rejected : int;
}

let reason_name r = Format.asprintf "%a" Types.pp_reason r

let make ?obs ?store ~policy ctl =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let obs = match store with Some s -> Store.attach s obs | None -> obs in
  {
    ctl;
    policy;
    obs;
    store;
    entries = Hashtbl.create 256;
    seq = 0;
    dirty = false;
    accepted = 0;
    rejected = 0;
  }

let create ?obs ?store ~policy fabric =
  Policy.validate policy;
  make ?obs ?store ~policy (Online.create fabric)

let obs t = t.obs
let dirty t = t.dirty

let flush t =
  Option.iter Store.flush t.store;
  t.dirty <- false

let snapshot t = Option.iter Store.snapshot_now t.store
let close t = Option.iter Store.close t.store
let records t = match t.store with Some s -> Store.records s | None -> 0
let accepted_count t = t.accepted
let rejected_count t = t.rejected
let active_count t = Online.active_count t.ctl

(* --- request handling --- *)

let bad_request message = Protocol.Error { code = Protocol.Bad_request; message }

let prior_decision id = function
  | Booked a | Cancelled a ->
      Protocol.Admitted
        { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
  | Refused reason -> Protocol.Rejected { id; reason }

let admit ?span t ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
  match Hashtbl.find_opt t.entries id with
  (* At-least-once retries: a duplicate admit returns the journaled
     decision without re-deciding (or re-journaling). *)
  | Some e -> prior_decision id e
  | None -> (
      if ts < 0. then bad_request "ts must be >= 0"
      else
        match Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate with
        | exception Invalid_argument msg -> bad_request msg
        | r ->
            if not (Request.routed_on r (Online.fabric t.ctl)) then
              bad_request
                (Printf.sprintf "no such route: ingress %d -> egress %d" ingress egress)
            else begin
              let at = Float.max (Online.now t.ctl) r.Request.ts in
              Option.iter (fun sp -> Span.set_req sp id) span;
              Obs.event t.obs (fun () ->
                  Event.Arrival
                    { time = at; seq = t.seq; id; ingress; egress; volume; ts; tf; max_rate });
              t.seq <- t.seq + 1;
              (* [t.obs] already carries the store's journaling sink
                 (pre-attached in [make]) — build the ctx without the
                 store so the decision is not journaled twice.  The span
                 rides the ctx: [try_admit] records the search timing and
                 the live-counter probe delta onto it. *)
              let decision =
                Online.try_admit ~ctx:(Runtime.make ~obs:t.obs ?span ()) t.ctl t.policy r ~at
              in
              if t.store <> None then t.dirty <- true;
              match decision with
              | Types.Accepted a ->
                  Hashtbl.replace t.entries id (Booked a);
                  t.accepted <- t.accepted + 1;
                  Protocol.Admitted
                    { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
              | Types.Rejected reason ->
                  let reason = reason_name reason in
                  Hashtbl.replace t.entries id (Refused reason);
                  t.rejected <- t.rejected + 1;
                  Protocol.Rejected { id; reason }
            end)

let query t id =
  let disposition =
    match Hashtbl.find_opt t.entries id with
    | None -> Protocol.Unknown
    | Some (Refused reason) -> Protocol.Refused { reason }
    | Some (Cancelled _) -> Protocol.Cancelled
    | Some (Booked a) ->
        let bw = a.Allocation.bw and sigma = a.Allocation.sigma and tau = a.Allocation.tau in
        if tau <= Online.now t.ctl then Protocol.Done { bw; sigma; tau }
        else Protocol.Active { bw; sigma; tau }
  in
  Protocol.Status { id; disposition }

let cancel t id =
  match Hashtbl.find_opt t.entries id with
  | None -> Protocol.Cancel_failed { id; reason = "unknown id" }
  | Some (Refused _) -> Protocol.Cancel_failed { id; reason = "was rejected" }
  | Some (Cancelled _) -> Protocol.Cancel_ok { id } (* idempotent retry *)
  | Some (Booked a) ->
      if Online.preempt ~ctx:(Runtime.make ~obs:t.obs ()) t.ctl a then begin
        Hashtbl.replace t.entries id (Cancelled a);
        if t.store <> None then t.dirty <- true;
        Protocol.Cancel_ok { id }
      end
      else Protocol.Cancel_failed { id; reason = "transfer already finished" }

let handle ?span t = function
  | Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      admit ?span t ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate
  | Protocol.Query { id } ->
      Option.iter (fun sp -> Span.set_req sp id) span;
      query t id
  | Protocol.Cancel { id } ->
      Option.iter (fun sp -> Span.set_req sp id) span;
      cancel t id
  | Protocol.Stats -> Protocol.Stats_text (Metrics.to_prometheus (Obs.metrics t.obs))
  | Protocol.Shutdown -> Protocol.Goodbye { records = records t }

(* --- recovery --- *)

(* Events past the leading capacity prefix. *)
let rec past_prefix = function
  | Event.Capacity _ :: rest -> past_prefix rest
  | rest -> rest

(* The bookings no Preempt released, in decision order.  A Preempt
   releases the id's oldest unreleased booking, so an id that was
   preempted and booked again keeps its newer booking. *)
let survivors (r : Store.recovered) =
  let preempts = Hashtbl.create 64 in
  List.iter
    (function
      | Event.Preempt { id; _ } ->
          Hashtbl.replace preempts id (1 + Option.value ~default:0 (Hashtbl.find_opt preempts id))
      | _ -> ())
    r.Store.events;
  List.filter_map
    (fun (_, (a : Allocation.t)) ->
      let id = a.Allocation.request.Request.id in
      match Hashtbl.find_opt preempts id with
      | Some n when n > 0 ->
          Hashtbl.replace preempts id (n - 1);
          None
      | _ -> Some a)
    r.Store.accepted

(* A preempted booking's remaining window was released live, so a
   whole-window audit would over-count it.  The survivors, by contrast,
   all coexisted in the live counters: each was admitted under capacity
   with every earlier survivor still booked.  Their static audit is
   therefore sound for any cancel history.  A journal that revises
   capacities past its prefix booked against a fabric that changed
   mid-run, so only its ledger is checked. *)
let audit (r : Store.recovered) =
  let revised =
    List.exists
      (function Event.Capacity _ | Event.Shed _ -> true | _ -> false)
      (past_prefix r.Store.events)
  in
  let allocs = if revised then None else Some (survivors r) in
  let violations =
    match allocs with
    | None -> []
    | Some allocs ->
        List.map Reference.describe (Reference.audit_allocations r.Store.initial_fabric allocs)
  in
  let violations =
    if Ledger.within_capacity (Store.ledger r.Store.store) then violations
    else violations @ [ "recovered ledger exceeds capacity" ]
  in
  (allocs, violations)

let of_recovered ?obs ~policy (r : Store.recovered) =
  Policy.validate policy;
  match audit r with
  | None, _ ->
      Error
        "store journal carries capacity revisions (fault-injector run); not a daemon journal"
  | Some _, v :: _ -> Error ("recovered journal fails its audit: " ^ v)
  | Some _, [] ->
      let t =
        make ?obs ~store:r.Store.store ~policy (Online.create r.Store.initial_fabric)
      in
      let by_id = Hashtbl.create 256 in
      List.iter
        (fun (_, a) -> Hashtbl.replace by_id a.Allocation.request.Request.id a)
        r.Store.accepted;
      (* Replay the journal through the controller in event order —
         the same grab/release sequence the live daemon performed, so
         the float accumulators come back bit-identical.  No [~obs]
         here: replay must not re-journal. *)
      List.iter
        (fun ev ->
          match ev with
          | Event.Arrival _ -> t.seq <- t.seq + 1
          | Event.Accept { time; id; _ } ->
              let a = Hashtbl.find by_id id in
              Online.restore t.ctl a ~at:time;
              Hashtbl.replace t.entries id (Booked a);
              t.accepted <- t.accepted + 1
          | Event.Reject { id; reason; _ } ->
              Hashtbl.replace t.entries id (Refused reason);
              t.rejected <- t.rejected + 1
          | Event.Preempt { time; id; _ } -> (
              Online.advance_to t.ctl time;
              match Hashtbl.find_opt t.entries id with
              | Some (Booked a) ->
                  ignore (Online.preempt t.ctl a);
                  Hashtbl.replace t.entries id (Cancelled a)
              | _ -> ())
          (* the serving plane journals constant-rate admissions
             only, so a malleable Reshape never appears here *)
          | Event.Reshape _ | Event.Capacity _ | Event.Shed _ | Event.Dispatch _ -> ())
        r.Store.events;
      Ok t
