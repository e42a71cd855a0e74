(* perfbench: the benchmark's in-process half.  run.py spawns the daemon
   and calls these subcommands; each prints one JSON object.

     perfbench gen    --socket S --seed N --seconds T (--rate R | --window W)
                      --acks FILE [--ops N] [--prefill OPS] [--validate]
     perfbench check  --store DIR --acks FILE
     perfbench batch  --seed N --seconds T
     perfbench trace  --seed N --ops K --round R --dir DIR --spans FILE *)

(* Latency limit of the service-level objective, milliseconds: a request
   answered later than this after it was due, or answered wrongly, misses. *)
let slo_ms = 50.

(* Generator connections: one per core of the 2-core machine of record. *)
let connections = 2

let usage () =
  prerr_endline "usage: perfbench (gen|check|batch|trace) [--flag value ...]";
  exit 2

(* Options are "--name value" pairs, or a bare "--name" flag. *)
let parse args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length v < 2 || String.sub v 0 2 <> "--" -> go ((k, v) :: acc) rest
    | k :: rest -> go ((k, "") :: acc) rest
  in
  go [] args

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
      let opts = parse args in
      let has k = List.mem_assoc ("--" ^ k) opts in
      let str k =
        match List.assoc_opt ("--" ^ k) opts with
        | Some v -> v
        | None ->
            Printf.eprintf "perfbench %s: --%s is required\n" cmd k;
            exit 2
      in
      let int k = int_of_string (str k) and float k = float_of_string (str k) in
      let out =
        match cmd with
        | "gen" ->
            let mode = if has "rate" then Client.Open (float "rate") else Client.Window (int "window") in
            Client.run ~socket:(str "socket") ~conns:connections ~mode ~seconds:(float "seconds")
              ~max_ops:(if has "ops" then int "ops" else max_int)
              ~seed:(int "seed") ~slo_ms ~acks:(str "acks")
              ~prefill:(if has "prefill" then int "prefill" else 0) ~validate:(has "validate")
        | "check" -> Check.run ~dir:(str "store") ~acks:(str "acks")
        | "batch" -> Batch.run ~seed:(int "seed") ~seconds:(float "seconds") ~slo_ms
        | "trace" ->
            Trace.run ~seed:(int "seed") ~ops:(int "ops")
              ~round:(int "round") ~dir:(str "dir") ~spans:(str "spans")
        | _ -> usage ()
      in
      print_endline (Gridbw_obs.Json.to_string out))
  | _ -> usage ()
