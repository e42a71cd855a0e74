(* Durable admission journal (lib/store): WAL framing and group commit,
   segment rotation, snapshots, and the crash matrix — a journaled GREEDY
   run carved at every record boundary, mid-record, and with flipped
   bytes must recover deterministically and resume to a summary
   bit-identical to the uninterrupted baseline. *)

open Helpers
module Wal = Gridbw_store.Wal
module Store = Gridbw_store.Store
module Torn = Gridbw_fault.Torn
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Reference = Gridbw_check.Reference
module Ledger = Gridbw_alloc.Ledger
module Request = Gridbw_request.Request
module Obs = Gridbw_obs.Obs
module Metrics = Gridbw_obs.Metrics
module Event = Gridbw_obs.Event

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "gridbw-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* Deterministic WAL configs: an hour of delay so wall-clock never
   triggers a sync mid-test. *)
let wal_config ?(batch = 4) ?(segment_bytes = Wal.default_config.Wal.segment_bytes) () =
  { Wal.batch; delay = 3600.; segment_bytes }

let store_config ?batch ?segment_bytes ?(snapshot_bytes = max_int) () =
  { Store.default_config with wal = wal_config ?batch ?segment_bytes (); snapshot_bytes }

(* --- WAL unit tests --- *)

let test_group_commit () =
  with_tmpdir (fun dir ->
      let syncs = ref [] in
      let w =
        Wal.create ~config:(wal_config ~batch:3 ()) ~on_sync:(fun n -> syncs := n :: !syncs)
          ~dir ()
      in
      for i = 1 to 7 do
        Wal.append w (Printf.sprintf "payload-%d" i)
      done;
      Alcotest.(check (list int)) "one fsync per full batch" [ 3; 3 ] (List.rev !syncs);
      Wal.close w;
      Alcotest.(check (list int)) "close flushes the remainder" [ 3; 3; 1 ] (List.rev !syncs);
      let s = Wal.scan ~dir in
      Alcotest.(check int) "all records valid" 7 s.Wal.valid;
      Alcotest.(check bool) "clean tail" true (s.Wal.torn = None))

let test_segment_rotation () =
  with_tmpdir (fun dir ->
      let w = Wal.create ~config:(wal_config ~batch:1 ~segment_bytes:64 ()) ~dir () in
      for i = 1 to 20 do
        Wal.append w (Printf.sprintf "record-number-%03d-padded-to-force-rotation" i)
      done;
      Wal.close w;
      let segs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".log")
      in
      Alcotest.(check bool) "log rotated" true (List.length segs > 1);
      let s = Wal.scan ~dir in
      Alcotest.(check int) "scan crosses segments" 20 s.Wal.valid;
      Alcotest.(check bool) "clean tail" true (s.Wal.torn = None);
      (* Reopening continues the numbering. *)
      let w2 = Wal.reopen ~config:(wal_config ~batch:1 ~segment_bytes:64 ()) ~dir ~records:20 () in
      Wal.append w2 "one-more";
      Wal.close w2;
      Alcotest.(check int) "append after reopen" 21 (Wal.scan ~dir).Wal.valid)

let test_segment_gap_orphans_tail () =
  with_tmpdir (fun dir ->
      let w = Wal.create ~config:(wal_config ~batch:1 ~segment_bytes:64 ()) ~dir () in
      for i = 1 to 20 do
        Wal.append w (Printf.sprintf "record-number-%03d-padded-to-force-rotation" i)
      done;
      Wal.close w;
      let segs = List.sort compare (Array.to_list (Sys.readdir dir)) in
      (* Delete a middle segment: everything after the gap is orphaned. *)
      (match segs with
      | _first :: second :: _ :: _ -> Sys.remove (Filename.concat dir second)
      | _ -> Alcotest.fail "expected at least three segments");
      let s = Wal.scan ~dir in
      Alcotest.(check bool) "gap detected" true (s.Wal.torn <> None);
      Alcotest.(check bool) "only the prefix survives" true (s.Wal.valid < 20))

(* --- the crash matrix ---

   For a journaled GREEDY run: carve a copy of the store at every record
   boundary and mid-record, recover, resume, and require the combined
   summary to be bit-identical to the uninterrupted baseline.  A cut
   inside the 4-record capacity prefix must instead fail cleanly (no
   fabric to recover against). *)

let policy = Policy.Fraction_of_max 0.8

let n_prefix = 4 (* fabric2 = 2 ingress + 2 egress capacity records *)

let baseline requests =
  let result = Flexible.greedy (fabric2 ()) policy requests in
  Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted

let journal_run ?batch ?segment_bytes ?snapshot_bytes ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store =
    Store.create ~config:(store_config ?batch ?segment_bytes ?snapshot_bytes ())
      ~time:t0 ~dir (fabric2 ())
  in
  let result = Flexible.greedy ~ctx:(Gridbw_core.Runtime.make ~store ()) (fabric2 ()) policy requests in
  Store.close store;
  result

let resume_and_check ~label ~expected ~dir requests =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      let result =
        Flexible.greedy_resume
          ~ctx:(Gridbw_core.Runtime.make ~store:r.Store.store ())
          r.Store.initial_fabric policy
          ~restored:r.Store.accepted ~decided:r.Store.decided ~arrived:r.Store.arrived requests
      in
      Store.close r.Store.store;
      let got = Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted in
      if got <> expected then
        Alcotest.failf "%s: resumed summary differs:@.baseline %a@.resumed %a" label Summary.pp
          expected Summary.pp got;
      (* The recovered bookings themselves must be a feasible schedule. *)
      (match Reference.audit_allocations (fabric2 ()) (List.map snd r.Store.accepted) with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %d audit violations on recovered state" label (List.length vs));
      if not (Ledger.within_capacity (Store.ledger r.Store.store)) then
        Alcotest.failf "%s: recovered mirror ledger exceeds capacity" label

let expect_prefix_error ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: recovery accepted a cut inside the capacity prefix" label

let carve ~src ~scratch n =
  if Sys.file_exists scratch then rm_rf scratch;
  Torn.copy_store ~src ~dst:scratch;
  Torn.truncate_at ~dir:scratch n;
  scratch

let crash_matrix seed () =
  let requests = workload_of_seed ~n:30 seed in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, total = Torn.record_boundaries ~dir:src in
      Alcotest.(check bool) "journal is non-trivial" true (List.length boundaries > n_prefix);
      List.iteri
        (fun kept boundary ->
          (* Clean cut exactly before record [kept]... *)
          let label = Printf.sprintf "seed %d, cut at record %d" seed kept in
          let dir = carve ~src ~scratch boundary in
          if kept < n_prefix then expect_prefix_error ~label ~dir
          else resume_and_check ~label ~expected ~dir requests;
          (* ...and a torn cut in the middle of record [kept]. *)
          let next =
            match List.nth_opt boundaries (kept + 1) with Some b -> b | None -> total
          in
          if next > boundary + 1 then begin
            let label = Printf.sprintf "seed %d, torn inside record %d" seed kept in
            let dir = carve ~src ~scratch (boundary + ((next - boundary) / 2)) in
            if kept < n_prefix then expect_prefix_error ~label ~dir
            else resume_and_check ~label ~expected ~dir requests
          end)
        boundaries)

let test_flipped_byte_truncates () =
  let requests = workload_of_seed ~n:30 3 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, _total = Torn.record_boundaries ~dir:src in
      (* Corrupt a byte inside a mid-log record: CRC (or the frame) breaks,
         recovery truncates there and the resume still converges. *)
      let target = List.nth boundaries (List.length boundaries / 2) in
      if Sys.file_exists scratch then rm_rf scratch;
      Torn.copy_store ~src ~dst:scratch;
      Torn.flip_byte ~dir:scratch (target + 3);
      resume_and_check ~label:"flipped byte" ~expected ~dir:scratch requests)

(* Snapshots written by the retired sharded daemon carry a "shard" key
   on every decision line.  They must still load: a snapshot that fails
   to parse is skipped, and recovery would fall back to a full WAL
   replay. *)
let test_snapshot_shard_keys_load () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" and dir = Filename.concat tmp "keyed" in
      ignore (journal_run ~batch:4 ~snapshot_bytes:512 ~dir:src requests);
      Torn.copy_store ~src ~dst:dir;
      let keyed = ref 0 in
      let add_key line =
        if
          List.exists
            (fun kind -> String.starts_with ~prefix:(Printf.sprintf {|{"ev":"%s"|} kind) line)
            [ "accept"; "reject"; "preempt"; "reshape" ]
        then begin
          incr keyed;
          String.sub line 0 (String.length line - 1) ^ {|,"shard":1}|}
        end
        else line
      in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".json" && f <> "store.json" then begin
            let path = Filename.concat dir f in
            let lines =
              String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
            in
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (String.concat "\n" (List.map add_key lines)))
          end)
        (Sys.readdir dir);
      Alcotest.(check bool) "decision lines were keyed" true (!keyed > 0);
      let recovered dir =
        match Store.recover ~config:(store_config ()) ~dir () with
        | Error msg -> Alcotest.failf "%s: recovery failed: %s" dir msg
        | Ok r ->
            Store.close r.Store.store;
            (r.Store.snapshot_cursor, r.Store.events)
      in
      let cursor, events = recovered dir in
      let cursor0, events0 = recovered src in
      Alcotest.(check bool) "recovery started from a snapshot" true (cursor > 0);
      Alcotest.(check int) "the same snapshot as without the keys" cursor0 cursor;
      Alcotest.(check bool) "the same events" true (events = events0))

let test_snapshot_recovery () =
  let requests = workload_of_seed ~n:30 17 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      (* Tiny snapshot threshold: several snapshots over the run. *)
      ignore (journal_run ~batch:4 ~snapshot_bytes:512 ~dir:src requests);
      let snaps =
        Sys.readdir src |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json" && f <> "store.json")
      in
      Alcotest.(check bool) "snapshots were written" true (List.length snaps >= 1);
      let _, total = Torn.record_boundaries ~dir:src in
      let dir = carve ~src ~scratch (total - 7) in
      (match Store.recover ~config:(store_config ()) ~dir () with
      | Error msg -> Alcotest.failf "snapshot recovery failed: %s" msg
      | Ok r ->
          Alcotest.(check bool) "recovery started from a snapshot" true
            (r.Store.snapshot_cursor > 0);
          Store.close r.Store.store);
      resume_and_check ~label:"snapshot + WAL tail" ~expected ~dir requests;
      (* A corrupted newest snapshot is skipped, not fatal. *)
      let dir = carve ~src ~scratch (total - 7) in
      let newest = List.sort compare snaps |> List.rev |> List.hd in
      let path = Filename.concat dir newest in
      if Sys.file_exists path then begin
        let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
        output_string oc "garbage";
        close_out oc
      end;
      resume_and_check ~label:"corrupt snapshot skipped" ~expected ~dir requests)

let test_double_crash () =
  let requests = workload_of_seed ~n:30 3 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, _ = Torn.record_boundaries ~dir:src in
      let cut_a = List.nth boundaries (List.length boundaries / 3) in
      let dir = carve ~src ~scratch cut_a in
      (* First crash: recover and resume, journaling into the same store. *)
      resume_and_check ~label:"first crash" ~expected ~dir requests;
      (* Second crash: carve the resumed journal again, further in. *)
      let boundaries2, _ = Torn.record_boundaries ~dir in
      let cut_b = List.nth boundaries2 (2 * List.length boundaries2 / 3) in
      Torn.truncate_at ~dir cut_b;
      resume_and_check ~label:"second crash" ~expected ~dir requests)

(* --- the malleable crash leg ---

   A journaled MALLEABLE run commits each profiled admission as ONE
   Reshape record carrying the new step schedule and every
   pending-profile revision the admission performed.  A SIGKILL between
   "revisions applied" and "admit recorded" must be unrepresentable on
   disk: carving the journal in the middle of a Reshape record recovers
   to a state bit-identical to the boundary before it (neither the admit
   nor any revision), and the boundary after it holds both.  The broad
   matrix additionally recovers every boundary and mid-record cut and
   audits the surviving profiled bookings. *)

module Allocation = Gridbw_alloc.Allocation
module Malleable = Gridbw_malleable.Malleable
module Rate_profile = Gridbw_alloc.Rate_profile

let malleable_journal_run ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store = Store.create ~config:(store_config ~batch:4 ()) ~time:t0 ~dir (fabric2 ()) in
  let result =
    Malleable.run
      { Malleable.default with Malleable.book_ahead = 10. }
      ~ctx:(Gridbw_core.Runtime.make ~store ())
      (fabric2 ()) requests
  in
  Store.close store;
  result

(* Recover a carve and return its profiled state as [(id, triples)] rows,
   after auditing it: reference-feasible, ledger within capacity, every
   profile closing to its volume bitwise. *)
let malleable_recovered_state ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Fun.protect ~finally:(fun () -> Store.close r.Store.store) @@ fun () ->
      let allocs = List.map snd r.Store.accepted in
      (match Reference.audit_allocations (fabric2 ()) allocs with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %d audit violations on recovered state" label (List.length vs));
      if not (Ledger.within_capacity (Store.ledger r.Store.store)) then
        Alcotest.failf "%s: recovered mirror ledger exceeds capacity" label;
      List.map
        (fun (a : Allocation.t) ->
          match a.Allocation.profile with
          | None ->
              Alcotest.failf "%s: malleable accept %d recovered without a profile" label
                a.Allocation.request.Request.id
          | Some p ->
              if Rate_profile.integral p <> a.Allocation.request.Request.volume then
                Alcotest.failf "%s: recovered profile of %d does not close bitwise" label
                  a.Allocation.request.Request.id;
              (a.Allocation.request.Request.id, Rate_profile.to_triples p))
        allocs
      |> List.sort compare

let test_malleable_crash_matrix () =
  let requests = workload_of_seed ~n:30 5 in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (malleable_journal_run ~dir:src requests);
      let events =
        match Store.recover ~config:(store_config ()) ~dir:src () with
        | Error msg -> Alcotest.failf "uncarved journal does not recover: %s" msg
        | Ok r ->
            Store.close r.Store.store;
            r.Store.events
      in
      let boundaries, total = Torn.record_boundaries ~dir:src in
      (* one WAL record per event (the capacity prefix is events too):
         the event index IS the record index the carves are keyed by *)
      Alcotest.(check int) "records = events" (List.length events) (List.length boundaries);
      let boundary_of record =
        match List.nth_opt boundaries record with Some b -> b | None -> total
      in
      (* broad matrix: every clean and torn cut recovers to an auditable
         profiled state (or fails cleanly inside the capacity prefix) *)
      List.iteri
        (fun kept boundary ->
          let label = Printf.sprintf "malleable cut at record %d" kept in
          let dir = carve ~src ~scratch boundary in
          if kept < n_prefix then expect_prefix_error ~label ~dir
          else ignore (malleable_recovered_state ~label ~dir);
          let next = boundary_of (kept + 1) in
          if next > boundary + 1 then begin
            let label = Printf.sprintf "malleable torn inside record %d" kept in
            let dir = carve ~src ~scratch (boundary + ((next - boundary) / 2)) in
            if kept < n_prefix then expect_prefix_error ~label ~dir
            else ignore (malleable_recovered_state ~label ~dir)
          end)
        boundaries;
      (* targeted both-or-neither: for every Reshape that revised pending
         profiles, a mid-record carve equals the pre state bit for bit
         and the post state holds the admit AND every revision *)
      let checked = ref 0 in
      List.iteri
        (fun i ev ->
          match ev with
          | Event.Reshape { id; profile; revised; _ } when Array.length revised > 0 ->
              incr checked;
              let record = i in
              let before_b = boundary_of record and after_b = boundary_of (record + 1) in
              let label = Printf.sprintf "reshape record %d (admit %d)" record id in
              let pre =
                malleable_recovered_state ~label:(label ^ ", pre")
                  ~dir:(carve ~src ~scratch before_b)
              in
              let mid =
                malleable_recovered_state ~label:(label ^ ", torn")
                  ~dir:(carve ~src ~scratch (before_b + ((after_b - before_b) / 2)))
              in
              if mid <> pre then
                Alcotest.failf "%s: torn reshape left a partial state behind" label;
              let post =
                malleable_recovered_state ~label:(label ^ ", post")
                  ~dir:(carve ~src ~scratch after_b)
              in
              (match List.assoc_opt id post with
              | Some got when got = profile -> ()
              | Some _ -> Alcotest.failf "%s: admitted profile differs from the record" label
              | None -> Alcotest.failf "%s: admit missing after a committed reshape" label);
              Array.iter
                (fun (rid, triples) ->
                  if not (List.mem_assoc rid pre) then
                    Alcotest.failf "%s: revision targets %d, which was never admitted" label rid;
                  match List.assoc_opt rid post with
                  | Some got when got = triples -> ()
                  | Some _ ->
                      Alcotest.failf "%s: revision of %d not applied by the replay" label rid
                  | None -> Alcotest.failf "%s: revised transfer %d vanished" label rid)
                revised
          | _ -> ())
        events;
      Alcotest.(check bool) "workload produced revising reshapes" true (!checked > 0))

let test_store_metrics () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "src" in
      let obs = Obs.create () in
      let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
      let store =
        Store.create ~config:(store_config ~batch:4 ()) ~obs ~time:t0 ~dir (fabric2 ())
      in
      ignore (Flexible.greedy ~ctx:(Gridbw_core.Runtime.make ~store ()) (fabric2 ()) policy requests);
      Store.close store;
      let m = Obs.metrics obs in
      Alcotest.(check int) "wal_records_total counts every record" (Store.records store)
        (Metrics.value (Metrics.counter m "store_wal_records_total"));
      Alcotest.(check bool) "fsyncs happened" true
        (Metrics.value (Metrics.counter m "store_fsync_total") > 0);
      let h = Metrics.histogram m "store_fsync_batch_size" in
      Alcotest.(check int) "batch histogram sums to the record count" (Store.records store)
        (int_of_float (Metrics.hist_sum h));
      (* Recovery counts the records it replayed. *)
      let obs2 = Obs.create () in
      match Store.recover ~config:(store_config ()) ~obs:obs2 ~dir () with
      | Error msg -> Alcotest.failf "recover: %s" msg
      | Ok r ->
          Store.close r.Store.store;
          Alcotest.(check int) "store_recovery_records" r.Store.replayed
            (Metrics.value (Metrics.counter (Obs.metrics obs2) "store_recovery_records")))

let test_create_refuses_existing () =
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "s" in
      let store = Store.create ~config:(store_config ()) ~dir (fabric2 ()) in
      Store.close store;
      Alcotest.(check bool) "exists" true (Store.exists ~dir);
      match Store.create ~config:(store_config ()) ~dir (fabric2 ()) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "create over an existing store accepted")

(* A text journal as older versions wrote it: a store.json header and one
   WAL segment of "%08x %d %s\n" lines (CRC32 in hex, payload length, one
   JSON event).  The binary-only scanner reads the first record as
   corrupt, so the capacity prefix is empty and recovery must refuse the
   store before it truncates anything. *)
let write_legacy_text_journal dir =
  let write name contents =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc contents)
  in
  write "store.json" ({|{"gridbw_store":1,"ingress":2,"egress":2}|} ^ "\n");
  let cap side port = Event.Capacity { time = 0.; side; port; capacity = 100. } in
  let events =
    [
      cap Event.Ingress 0; cap Event.Ingress 1; cap Event.Egress 0; cap Event.Egress 1;
      Event.Arrival
        { time = 0.; seq = 0; id = 1; ingress = 0; egress = 1; volume = 100.; ts = 0.;
          tf = 10.; max_rate = 50. };
      Event.Accept
        { time = 0.; id = 1; ingress = 0; egress = 1; volume = 100.; ts = 0.; tf = 10.;
          max_rate = 50.; bw = 10.; sigma = 0. };
    ]
  in
  let line ev =
    let payload = Event.to_json ev in
    Printf.sprintf "%08lx %d %s\n" (Gridbw_wire.Crc32.digest payload) (String.length payload)
      payload
  in
  write "wal-0000000000.log" (String.concat "" (List.map line events))

let test_legacy_text_journal_refused () =
  with_tmpdir (fun dir ->
      write_legacy_text_journal dir;
      let files () =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f ->
               (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
      in
      let before = files () in
      let unchanged label = Alcotest.(check (list (pair string string))) label before (files ()) in
      (match Store.recover ~config:(store_config ()) ~dir () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "Store.recover accepted a text journal");
      unchanged "files untouched by Store.recover";
      let exe =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "gridbw.exe"))
      in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
      let pid = Unix.create_process exe [| exe; "recover"; dir |] null null null in
      Unix.close null;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "gridbw recover exits non-zero" true (status <> Unix.WEXITED 0);
      unchanged "files untouched by gridbw recover")

(* Random crash offsets, on top of the exhaustive boundary matrix. *)
let prop_random_offset_recovers =
  let requests = lazy (workload_of_seed ~n:30 3) in
  let fixture =
    lazy
      (let requests = Lazy.force requests in
       let dir = Filename.temp_file "gridbw-store-prop" "" in
       Sys.remove dir;
       Sys.mkdir dir 0o755;
       ignore (journal_run ~batch:4 ~dir requests);
       at_exit (fun () -> if Sys.file_exists dir then rm_rf dir);
       (dir, snd (Torn.record_boundaries ~dir), baseline requests))
  in
  qcase ~count:25 "store: recovery converges from a random crash offset"
    QCheck2.Gen.(int_range 0 10_000_000)
    (fun raw ->
      let src, total, expected = Lazy.force fixture in
      let requests = Lazy.force requests in
      let n = raw mod total in
      let scratch = src ^ "-carved" in
      let dir = carve ~src ~scratch n in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists scratch then rm_rf scratch)
        (fun () ->
          match Store.recover ~config:(store_config ()) ~dir () with
          | Error _ ->
              (* Only legitimate inside the capacity prefix. *)
              let kept = (Wal.scan ~dir).Wal.valid in
              kept < n_prefix
          | Ok r ->
              let result =
                Flexible.greedy_resume
          ~ctx:(Gridbw_core.Runtime.make ~store:r.Store.store ())
          r.Store.initial_fabric policy
                  ~restored:r.Store.accepted ~decided:r.Store.decided ~arrived:r.Store.arrived
                  requests
              in
              Store.close r.Store.store;
              Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted
              = expected))

(* --- Store.flush: explicit group commit --- *)

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if String.length f >= 4 && String.sub f 0 4 = "wal-" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* With --store-batch far larger than what we append (and the sync delay
   out of reach), records stay in the writer's buffer: nothing lands on
   disk until Store.flush forces the group commit.  This is the fsync the
   daemon runs before acking a round. *)
let test_flush_forces_group_commit () =
  with_tmpdir (fun dir ->
      let obs = Obs.create () in
      let store =
        Store.create ~config:(store_config ~batch:1000 ()) ~obs ~dir (fabric2 ())
      in
      Store.flush store;
      let base = wal_bytes dir in
      for i = 0 to 9 do
        Store.log store
          (Event.Arrival
             { time = float_of_int i; seq = i; id = i; ingress = 0; egress = 0;
               volume = 10.; ts = float_of_int i; tf = float_of_int i +. 10.;
               max_rate = 5. })
      done;
      Alcotest.(check int) "group commit holds records back" base (wal_bytes dir);
      let fsyncs () = Metrics.value (Metrics.counter (Obs.metrics obs) "store_fsync_total") in
      let before = fsyncs () in
      Store.flush store;
      let flushed = wal_bytes dir in
      Alcotest.(check bool) "flush pushes the tail to disk" true (flushed > base);
      Alcotest.(check bool) "flush fsyncs" true (fsyncs () > before);
      Store.flush store;
      Alcotest.(check int) "flush of an empty tail is a no-op" flushed (wal_bytes dir);
      let total = Store.records store in
      Store.close store;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "every flushed record recovers" total
            (Store.records r.Store.store);
          Store.close r.Store.store)

(* The new Runtime.ctx plumbing and the deprecated ?store argument must
   journal byte-identically: same WAL payload stream, same decisions. *)
let test_ctx_journal_matches_legacy () =
  let requests = random_requests ~seed:21L ~n:40 (fabric2 ()) in
  let journal run =
    with_tmpdir (fun dir ->
        let store = Store.create ~config:(store_config ()) ~time:0.0 ~dir (fabric2 ()) in
        let result = run store in
        Store.close store;
        let s = Wal.scan ~dir in
        ( List.length result.Types.accepted,
          List.map (fun (r : Wal.record) -> r.Wal.payload) s.Wal.records ))
  in
  let legacy = journal (fun store -> Flexible.greedy ~ctx:(Gridbw_core.Runtime.make ~store ()) (fabric2 ()) policy requests) in
  let ctxed =
    journal (fun store ->
        Flexible.greedy
          ~ctx:(Gridbw_core.Runtime.make ~store ())
          (fabric2 ()) policy requests)
  in
  Alcotest.(check int) "same accept count" (fst legacy) (fst ctxed);
  Alcotest.(check bool) "identical journal payloads" true (snd legacy = snd ctxed)

let test_observed_tees_store () =
  let module Runtime = Gridbw_core.Runtime in
  Alcotest.(check bool) "default ctx stays disabled" false
    (Runtime.observed Runtime.default).Obs.enabled;
  with_tmpdir (fun dir ->
      let store = Store.create ~config:(store_config ()) ~time:0.0 ~dir (fabric2 ()) in
      let obs = Runtime.observed (Runtime.make ~store ()) in
      Alcotest.(check bool) "store-only ctx journals" true obs.Obs.enabled;
      Store.close store)

let suites =
  [
    ( "store",
      [
        case "flush: forces the group commit to disk" test_flush_forces_group_commit;
        case "wal: group commit fsyncs per batch" test_group_commit;
        case "wal: segments rotate and reopen" test_segment_rotation;
        case "wal: segment gap orphans the tail" test_segment_gap_orphans_tail;
        case "store: create refuses an existing store" test_create_refuses_existing;
        case "store: a legacy text journal is refused, never truncated"
          test_legacy_text_journal_refused;
        case "crash matrix: every boundary and torn record (seed 3)" (crash_matrix 3);
        case "crash matrix: every boundary and torn record (seed 17)" (crash_matrix 17);
        case "crash: flipped byte truncates at the CRC" test_flipped_byte_truncates;
        case "crash: snapshot + WAL tail recovery" test_snapshot_recovery;
        case "snapshot: lines with a retired shard key still load" test_snapshot_shard_keys_load;
        case "crash: double crash, recover twice" test_double_crash;
        case "crash matrix: malleable journal, reshape+admit both-or-neither"
          test_malleable_crash_matrix;
        case "metrics: store counters land in the registry" test_store_metrics;
        case "ctx: Runtime.ctx journals identically to ?store" test_ctx_journal_matches_legacy;
        case "ctx: observed tees the store sink" test_observed_tees_store;
        prop_random_offset_recovers;
      ] );
  ]
