(* Service benchmark: replays traffic traces through an in-process
   srserved engine (Serve.Server) and reports launches/sec plus cache
   behaviour, next to BENCH_interp.json's per-exhibit numbers.

   Three traces:

   - repeated  — a small set of compile-heavy straight-line kernels,
     each launched many times: the "millions of clients, one kernel"
     shape the compile cache exists for. Cold numbers run with the
     cache disabled (capacity 0: every launch pays parse→lint→decode),
     warm numbers against a warmed cache (every launch after the first
     is a hit). The committed BENCH_service.json must show warm ≥ 2x
     cold here — that ratio is the service's reason to exist.
   - registry  — every Table-2 workload (warps=1), repeated: realistic
     kernels where simulation, not compilation, dominates.
   - fuzz      — a fixed-seed generated slice, each program twice:
     small-kernel traffic with a 50% hit rate.

   Wall-clock methodology matches PERF.md's caveats: single process,
   monotonic timestamps around whole trace replays, and the JSON is a
   trajectory for humans + the serve bench docs, not a runtest gate. *)

module P = Serve.Protocol

let gettime = Unix.gettimeofday

(* ---- trace construction ---- *)

(* Compile-heavy kernels (Workloads.Cold_path): the compile pipeline
   pays for all 160 statements on every cache miss, while a launch
   issues only the guards and epilogue. Distinct salts give distinct
   sources, so the trace exercises real cache traffic rather than one
   hot entry. *)
let repeated_trace =
  let kernels = List.init 4 (fun salt -> Workloads.Cold_path.source ~salt ~n:160) in
  let reps = 32 in
  List.concat_map
    (fun source ->
      List.init reps (fun id -> P.Run (P.make_request ~id ~warps:1 ~source ())))
    kernels

let registry_trace =
  let reps = 4 in
  List.concat_map
    (fun (spec : Workloads.Spec.t) ->
      List.init reps (fun id ->
          P.Run
            (P.make_request ~id ~warps:1 ?coarsen:spec.Workloads.Spec.coarsen
               ~args:spec.Workloads.Spec.args ~source:spec.Workloads.Spec.source ())))
    Workloads.Registry.all

let fuzz_trace =
  let count = 100 in
  List.concat_map
    (fun i ->
      let case = Fuzz.Gen.generate ~seed:909 i in
      let source = Front.Pretty.to_string case.Fuzz.Gen.ast in
      [
        P.Run (P.make_request ~id:i ~init:"data" ~source ());
        P.Run (P.make_request ~id:(i + count) ~init:"data" ~source ());
      ])
    (List.init count Fun.id)

(* ---- measurement ---- *)

type sample = {
  launches_per_sec : float;
  hit_rate : float; (* of the timed passes *)
  errors : int;
}

let replay server trace =
  List.length
    (List.filter
       (function P.Error _ -> true | _ -> false)
       (Serve.Server.submit server trace))

(* Time [passes] full replays of [trace] against a fresh server with
   [capacity] cache entries, after [warmup] untimed replays. *)
let measure ~capacity ~warmup ~passes trace =
  let server = Serve.Server.create ~cache_capacity:capacity ~max_issues:100_000_000 () in
  for _ = 1 to warmup do
    ignore (replay server trace)
  done;
  let h0 = Serve.Server.cache_hits server and m0 = Serve.Server.cache_misses server in
  let errors = ref 0 in
  let t0 = gettime () in
  for _ = 1 to passes do
    errors := !errors + replay server trace
  done;
  let dt = gettime () -. t0 in
  let lookups =
    Serve.Server.cache_hits server + Serve.Server.cache_misses server - h0 - m0
  in
  {
    launches_per_sec = (if dt <= 0.0 then 0.0 else float_of_int (passes * List.length trace) /. dt);
    hit_rate =
      (if lookups = 0 then 0.0
       else float_of_int (Serve.Server.cache_hits server - h0) /. float_of_int lookups);
    errors = !errors;
  }

(* Persisted-restart shape: every timed pass is a brand-new server —
   the kill -9 / restart lifecycle the crash-safe store exists for. A
   cold restart recompiles every kernel from source; a restart over a
   populated --persist store deserializes the decoded artifacts
   instead. The committed BENCH_service.json must show restart-warm ≥
   2x restart-cold on the compile-heavy trace — that ratio is the
   store's reason to exist. *)
let measure_restart ?persist_dir ~passes trace =
  let fresh () =
    Serve.Server.create ~cache_capacity:256 ~max_issues:100_000_000 ?persist_dir ()
  in
  ignore (replay (fresh ()) trace) (* warmup: populates the store when given one *);
  let errors = ref 0 in
  let t0 = gettime () in
  for _ = 1 to passes do
    errors := !errors + replay (fresh ()) trace
  done;
  let dt = gettime () -. t0 in
  {
    launches_per_sec =
      (if dt <= 0.0 then 0.0 else float_of_int (passes * List.length trace) /. dt);
    hit_rate = 0.0;
    errors = !errors;
  }

let restart_trace =
  List.concat_map
    (fun salt ->
      let source = Workloads.Cold_path.source ~salt ~n:160 in
      List.init 4 (fun id -> P.Run (P.make_request ~id ~warps:1 ~source ())))
    (List.init 4 Fun.id)

let measure_persisted_restart ~passes =
  let dir = Filename.temp_file "srserved_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let cold = measure_restart ~passes restart_trace in
  let warm = measure_restart ~persist_dir:dir ~passes restart_trace in
  (cold, warm)

let json_path = "BENCH_service.json"

let () =
  let traces =
    [ ("repeated", repeated_trace, 3); ("registry", registry_trace, 3); ("fuzz", fuzz_trace, 2) ]
  in
  let rows =
    List.concat_map
      (fun (name, trace, passes) ->
        let cold = measure ~capacity:0 ~warmup:1 ~passes trace in
        let warm = measure ~capacity:256 ~warmup:1 ~passes trace in
        Printf.printf
          "serve/%-9s %5d launches/pass: cold %8.1f/s, warm %8.1f/s (%.2fx), warm hit rate \
           %.3f, errors %d\n%!"
          name (List.length trace) cold.launches_per_sec warm.launches_per_sec
          (warm.launches_per_sec /. cold.launches_per_sec)
          warm.hit_rate (cold.errors + warm.errors);
        [
          (Printf.sprintf "serve/%s/cold_launches_per_sec" name, cold.launches_per_sec);
          (Printf.sprintf "serve/%s/warm_launches_per_sec" name, warm.launches_per_sec);
          (Printf.sprintf "serve/%s/warm_over_cold" name,
           warm.launches_per_sec /. cold.launches_per_sec);
          (Printf.sprintf "serve/%s/warm_hit_rate" name, warm.hit_rate);
        ])
      traces
  in
  let rows =
    let cold, warm = measure_persisted_restart ~passes:3 in
    Printf.printf
      "serve/persisted %5d launches/restart: cold restart %8.1f/s, persisted restart \
       %8.1f/s (%.2fx), errors %d\n%!"
      (List.length restart_trace) cold.launches_per_sec warm.launches_per_sec
      (warm.launches_per_sec /. cold.launches_per_sec)
      (cold.errors + warm.errors);
    rows
    @ [
        ("serve/persisted/cold_restart_launches_per_sec", cold.launches_per_sec);
        ("serve/persisted/warm_restart_launches_per_sec", warm.launches_per_sec);
        ( "serve/persisted/restart_warm_over_cold",
          warm.launches_per_sec /. cold.launches_per_sec );
      ]
  in
  let oc = open_out json_path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "  %S: %.6f%s\n" name v (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n" json_path (List.length rows)
