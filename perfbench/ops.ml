(* The benchmark's request stream, shared by the socket generator and the
   in-process traced replay so both see the same operations for a seed.

   Admits come from the paper's section 5.3 flexible workload
   ([Gridbw_workload.Gen]), drawn in chunks as the stream is consumed (or
   ahead of time, with [prepare]); chunk k is re-numbered after chunk k-1
   and shifted to start where it ended, so ids and start times keep
   growing.
   A fixed share of the slots are [query] reads of an earlier admit.
   Cancels are not drawn here: whoever consumes the stream cancels every
   [cancel_every]-th admitted request when its decision comes back. *)

module Rng = Gridbw_prng.Rng
module Request = Gridbw_request.Request
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen

type op = Admit of Request.t | Query of int | Cancel of int

let mean_interarrival = 1.0
let query_share = 0.1
let cancel_every = 50
let chunk = 4096

type t = {
  spec : Spec.t;
  req_rng : Rng.t;
  mix_rng : Rng.t;
  drawn : Request.t Queue.t;  (** drawn, not yet handed out *)
  mutable admits : int;  (** admits handed out; admit ids are 0 .. admits-1 *)
  mutable next_id : int;
  mutable ts_base : float;
}

let create ~seed =
  let root = Rng.create ~seed:(Int64.of_int seed) () in
  let req_rng = Rng.split root in
  let mix_rng = Rng.split root in
  {
    spec = Spec.paper_flexible ~count:chunk ~mean_interarrival ();
    req_rng;
    mix_rng;
    drawn = Queue.create ();
    admits = 0;
    next_id = 0;
    ts_base = 0.;
  }

let refill t =
  let base_id = t.next_id and base = t.ts_base in
  let chunk = Gen.generate t.req_rng t.spec in
  List.iter
    (fun (r : Request.t) ->
      Queue.push
        (Request.make ~id:(base_id + r.id) ~ingress:r.ingress ~egress:r.egress ~volume:r.volume
           ~ts:(base +. r.ts) ~tf:(base +. r.tf) ~max_rate:r.max_rate)
        t.drawn;
      t.ts_base <- base +. r.ts)
    chunk;
  t.next_id <- base_id + List.length chunk

(* Draw ahead so that the next [n] operations need no drawing: drawing a
   chunk takes milliseconds, which an open loop must not spend on its
   schedule. *)
let prepare t n = while Queue.length t.drawn < n do refill t done

let next_request t =
  if Queue.is_empty t.drawn then refill t;
  t.admits <- t.admits + 1;
  Queue.pop t.drawn

let next t =
  if t.admits > 0 && Rng.float t.mix_rng 1.0 < query_share then
    Query (Rng.int t.mix_rng t.admits)
  else Admit (next_request t)

(* The first [n] admits of the stream, for the batch engines. *)
let requests ~seed n =
  let t = create ~seed in
  List.init n (fun _ -> next_request t)

let protocol_of = function
  | Admit r ->
      Gridbw_serve.Protocol.Admit
        {
          id = r.Request.id;
          ingress = r.ingress;
          egress = r.egress;
          volume = r.volume;
          ts = r.ts;
          tf = r.tf;
          max_rate = r.max_rate;
        }
  | Query id -> Gridbw_serve.Protocol.Query { id }
  | Cancel id -> Gridbw_serve.Protocol.Cancel { id }

(* Poisson arrival schedule, nanoseconds after the start of sending. *)
type schedule = { rng : Rng.t; rate : float; mutable due : float }

let schedule ~seed ~rate =
  { rng = Rng.create ~seed:(Int64.of_int (seed * 7919 + 17)) (); rate; due = 0. }

let next_due s =
  let d = s.due in
  s.due <- s.due +. (-.log (1. -. Rng.float s.rng 1.0) /. s.rate *. 1e9);
  d
