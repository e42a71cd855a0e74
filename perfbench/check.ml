(* The durable workloads' restart gate.  After the daemon was killed and
   restarted on its store, recover the store and demand that every admit
   the generator saw acknowledged comes back with the same bw, sigma and
   tau (bit for bit), that every acknowledged cancel comes back as a
   preemption, and that the surviving bookings pass the reference audit. *)

module Store = Gridbw_store.Store
module Event = Gridbw_obs.Event
module Allocation = Gridbw_alloc.Allocation
module Request = Gridbw_request.Request
module Reference = Gridbw_check.Reference
module Json = Gridbw_obs.Json

let bits = Int64.bits_of_float

let run ~dir ~acks =
  match Store.recover ~dir () with
  | Error e -> Json.Obj [ ("failed", Json.Num 1.); ("first_failure", Json.Str ("recover: " ^ e)) ]
  | Ok r ->
      let accepted = Hashtbl.create 65536 in
      List.iter
        (fun (_, (a : Allocation.t)) -> Hashtbl.replace accepted a.request.Request.id a)
        r.Store.accepted;
      let preempted = Hashtbl.create 1024 in
      List.iter
        (function Event.Preempt { id; _ } -> Hashtbl.replace preempted id () | _ -> ())
        r.Store.events;
      let admits = ref 0 and cancels = ref 0 and failed = ref 0 and first = ref None in
      let fail m =
        incr failed;
        if !first = None then first := Some m
      in
      let ic = open_in acks in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | [ "A"; id; bw; sigma; tau ] -> (
               incr admits;
               let id = int_of_string id in
               let same f x = Int64.equal (bits f) (Int64.of_string ("0x" ^ x)) in
               match Hashtbl.find_opt accepted id with
               | Some a when same a.bw bw && same a.sigma sigma && same a.tau tau -> ()
               | Some _ -> fail (Printf.sprintf "admit %d recovered with another window" id)
               | None -> fail (Printf.sprintf "acked admit %d not recovered" id))
           | [ "C"; id ] ->
               incr cancels;
               if not (Hashtbl.mem preempted (int_of_string id)) then
                 fail ("acked cancel not recovered: " ^ id)
           | _ -> fail "malformed acks line"
         done
       with End_of_file -> ());
      close_in ic;
      let survivors =
        Hashtbl.fold
          (fun id a acc -> if Hashtbl.mem preempted id then acc else a :: acc)
          accepted []
      in
      let violations = Reference.audit_allocations r.Store.initial_fabric survivors in
      (match violations with
      | v :: _ -> fail ("reference audit: " ^ Reference.describe v)
      | [] -> ());
      Store.close r.Store.store;
      let int i = Json.Num (float_of_int i) in
      Json.Obj
        [
          ("admits", int !admits);
          ("cancels", int !cancels);
          ("recovered", int (Hashtbl.length accepted));
          ("survivors", int (List.length survivors));
          ("failed", int !failed);
          ("first_failure", match !first with Some m -> Json.Str m | None -> Json.Null);
        ]
