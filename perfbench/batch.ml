(* The batch-engines workload: WINDOW, GREEDY and MALLEABLE (reshape on)
   run in-process, round after round, over one seeded overloaded batch.
   Serve and store are bypassed: the time goes to alloc, core and
   malleable.

   A batch request is acknowledged when its engine pass returns, so each
   request of a pass gets the pass's duration as its ack latency.  The
   rounds of a run are cut into [segments] consecutive stretches; latency
   percentiles and throughput are computed per stretch and reported as the
   median over stretches, so one slow stretch of the machine (a host
   hiccup, a major GC slice) moves one stretch, not the result. *)

module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Malleable = Gridbw_malleable.Malleable
module Validate = Gridbw_metrics.Validate
module Json = Gridbw_obs.Json

let policy = Policy.Fraction_of_max 0.8
let window_step = 100.

(* Sized so that one WINDOW pass and one MALLEABLE pass each take a
   comparable share of a round on a 2-core Xeon container. *)
let window_requests = 100_000
let greedy_requests = 50_000
let malleable_requests = 100
let malleable_batches = 16
let segments = 8

(* [count] requests per batch; MALLEABLE runs several short consecutive
   batches so its cost, quadratic in the batch, averages over more of the
   stream. *)
type engine = { name : string; count : int; batches : int; run : Request.t list -> Types.result }

let engines fabric =
  [
    { name = "window"; count = window_requests; batches = 1;
      run = Flexible.window fabric policy ~step:window_step };
    { name = "greedy"; count = greedy_requests; batches = 1; run = Flexible.greedy fabric policy };
    { name = "malleable"; count = malleable_requests; batches = malleable_batches;
      run = Malleable.run Malleable.default fabric };
  ]

let now = Client.now

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun k -> k)
    | _ -> go ()
  in
  let k = go () in
  close_in ic;
  k

(* Book an allocation as the store's mirror ledger does on recovery:
   profiled allocations step by step, constant ones over [sigma, tau). *)
let rebook ledger (a : Allocation.t) =
  let r = a.Allocation.request in
  let ingress = r.Request.ingress and egress = r.Request.egress in
  match a.Allocation.profile with
  | Some p ->
      List.iter
        (fun (s : Gridbw_alloc.Rate_profile.seg) ->
          Ledger.reserve_interval ledger ~ingress ~egress ~bw:s.rate ~from_:s.from_ ~until:s.until)
        (Gridbw_alloc.Rate_profile.segments p)
  | None -> Ledger.reserve ledger a

(* One job per engine batch; MALLEABLE's batches are consecutive slices. *)
let inputs ~seed =
  let longest = List.fold_left max 0 [ window_requests; greedy_requests;
                                       malleable_requests * malleable_batches ] in
  let all = Array.of_list (Ops.requests ~seed longest) in
  List.concat_map
    (fun e ->
      List.init e.batches (fun k -> (e, Array.to_list (Array.sub all (k * e.count) e.count))))
    (engines (Fabric.paper_default ()))

let run ~seed ~seconds ~slo_ms =
  (* set-up: draw the seeded batch and build the engines, five times *)
  let setups =
    List.init 5 (fun _ ->
        let t = now () in
        ignore (Sys.opaque_identity (inputs ~seed));
        (now () -. t) /. 1e9)
  in
  let work = inputs ~seed in
  let fabric = Fabric.paper_default () in
  let failures = ref [] in
  let fail m = if not (List.mem m !failures) then failures := m :: !failures in
  (* first pass of each job: reference decision count + validation *)
  let reference =
    List.map
      (fun (e, reqs) ->
        let res = e.run reqs in
        if Validate.check fabric res.Types.accepted <> [] then
          fail (e.name ^ ": allocations fail Validate.check");
        if not (Types.is_consistent res) then fail (e.name ^ ": inconsistent result");
        res.Types.accepted)
      work
  in
  let per_engine = ref [] in
  (* restart analogue, timed once per round: rebook every accepted
     allocation onto a fresh ledger *)
  let rebooks = ref [] in
  let rebook_all () =
    let t = now () in
    List.iter
      (fun accepted ->
        let l = Ledger.create fabric in
        List.iter (rebook l) accepted)
      reference;
    rebooks := ((now () -. t) /. 1e9) :: !rebooks
  in
  let passes = ref [] and decided = ref 0 and attempted = ref 0 and rounds = ref 0 in
  let failed = ref (if !failures = [] then 0 else 1) in
  (* harness lateness: the gap between one pass returning and the next
     starting, the batch analogue of a generator behind its schedule *)
  let gaps = ref [] and last = ref nan in
  let cpu0 = Unix.times () in
  let t_end = now () +. (seconds *. 1e9) in
  while now () < t_end do
    List.iter2
      (fun (e, reqs) accepted ->
        let t = now () in
        if Float.is_finite !last then gaps := (t -. !last) :: !gaps;
        let res = e.run reqs in
        last := now ();
        let d = !last -. t in
        let n = e.count in
        passes := (!rounds, d, n) :: !passes;
        per_engine := (e.name, d) :: !per_engine;
        decided := !decided + n;
        attempted := !attempted + n;
        if List.length res.Types.accepted <> List.length accepted then begin
          failed := !failed + n;
          fail (e.name ^ ": decision count differs between passes")
        end)
      work reference;
    last := nan;
    incr rounds;
    rebook_all ()
  done;
  let cpu1 = Unix.times () in
  let cpu_s = cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime in
  let gaps = Array.of_list !gaps in
  Array.sort Float.compare gaps;
  (* a request's ack latency is its pass's duration: weighted ranks *)
  let rank by_lat q =
    let total = List.fold_left (fun s (_, n) -> s + n) 0 by_lat in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go acc = function
      | [] -> 0.
      | (d, n) :: rest -> if acc + n >= target then d else go (acc + n) rest
    in
    go 0 by_lat
  in
  let nseg = max 1 (min segments !rounds) in
  let stretches =
    List.init nseg (fun k ->
        let mine = List.filter (fun (r, _, _) -> r * nseg / max 1 !rounds = k) !passes in
        let by_lat =
          List.sort (fun (a, _) (b, _) -> Float.compare a b) (List.map (fun (_, d, n) -> (d, n)) mine)
        in
        let busy = List.fold_left (fun s (d, _) -> s +. d) 0. by_lat in
        let count = List.fold_left (fun s (_, n) -> s + n) 0 by_lat in
        (rank by_lat 0.5, rank by_lat 0.99, float_of_int count /. (busy /. 1e9)))
  in
  let over f = median (List.map f stretches) in
  let slo_misses =
    List.fold_left (fun s (_, d, n) -> if d > slo_ms *. 1e6 then s + n else s) 0 !passes
  in
  let num f = Json.Num f and int i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("attempted", int !attempted);
      ("failed", int !failed);
      ("failures", Json.List (List.map (fun m -> Json.Str m) !failures));
      ("passes", int (List.length !passes));
      ("throughput_rps", num (over (fun (_, _, r) -> r)));
      ("ack_p50_us", num (over (fun (p, _, _) -> p) /. 1e3));
      ("ack_p99_us", num (over (fun (_, p, _) -> p) /. 1e3));
      ("segments", int nseg);
      ("slo_misses", int slo_misses);
      ("cpu_ms_per_kreq", num (cpu_s *. 1e3 /. (float_of_int !decided /. 1e3)));
      ("late_p99_us", num (Client.rank gaps 0.99 /. 1e3));
      ("late_max_us", num (Client.rank gaps 1.0 /. 1e3));
      ("setup_s", num (median setups));
      ("recover_s", num (median !rebooks));
      ("rss_mb", num (float_of_int (vm_hwm_kb ()) /. 1024.));
      ( "pass_ms",
        Json.Obj
          (List.map
             (fun e ->
               ( e.name,
                 num
                   (median
                      (List.filter_map
                         (fun (n, d) -> if n = e.name then Some (d /. 1e6) else None)
                         !per_engine)) ))
             (engines fabric)) );
      ( "accepted",
        Json.List (List.map (fun accepted -> int (List.length accepted)) reference) );
    ]
