(* srserved: a long-lived batched compile-and-simulate service.

   Reads newline-delimited requests (Serve.Protocol) from stdin — or
   from --trace FILE, or over a Unix-domain socket with --socket PATH —
   and answers one response line per request line, in order.
   Consecutive `run` lines accumulate into a batch of up to --max-batch
   requests; a batch flushes (compiles its distinct kernels once
   through the content-addressed cache, launches across cores, and
   prints responses) when it fills, when a non-run line arrives, on an
   empty line, or at EOF. `stats` reports the cache counters, `quit`
   answers `bye` and exits 0 (over a socket: ends that connection).
   `shutdown` — or SIGTERM in socket mode — drains gracefully:
   in-flight work completes and answers, later admissions bounce with
   `overloaded retry-after=N`, everyone gets `bye`, exit 0. Malformed
   lines get `error` responses (usage code) without disturbing the
   stream; the server never dies on bad input.

   --persist DIR write-through-caches compile artifacts to a crash-safe
   on-disk store: a restarted server answers repeated kernels without
   recompiling, and corrupt/truncated entries silently degrade to
   misses (visible as phits/pcorrupt in `stats`). --deadline FUEL
   bounds every launch (requests may override with deadline=), answered
   with a `deadline` response rather than an error.

   --smoke runs the in-process self-test the @serve-smoke alias gates
   on: the workload registry (twice, so the repeated kernels must hit
   the compile cache) plus a fixed-seed fuzz slice, then a soak pass
   replaying the same trace and requiring semantically identical
   responses (same metrics and memory digests; only the cumulative
   cache counters may differ), then a socket leg (a forked server must
   answer byte-identically to the in-process engine, then drain on
   shutdown) and a persist leg (a restarted server must answer
   byte-identically from the store, surviving corruption). Exit 1 if
   any expectation fails. *)

module P = Serve.Protocol

let usage msg = raise (Core.Cli.Error (Core.Cli.Usage msg))

(* ---- stdio / trace service loop ---- *)

let is_run_line line =
  let line = String.trim line in
  String.length line >= 4 && String.sub line 0 4 = "run "

let serve_channel server ~max_batch ic =
  let quit = ref false in
  let pending = ref [] in
  let respond lines =
    List.iter print_endline (Serve.Server.submit_lines server lines);
    flush stdout
  in
  let flush_pending () =
    if !pending <> [] then begin
      respond (List.rev !pending);
      pending := []
    end
  in
  (try
     while not !quit do
       let line = input_line ic in
       if String.trim line = "" then flush_pending ()
       else if is_run_line line then begin
         pending := line :: !pending;
         if List.length !pending >= max_batch then flush_pending ()
       end
       else begin
         (* stats / quit / shutdown / malformed: sequential markers —
            they observe every launch before them, so the batch goes
            first. shutdown sets the server draining, which over stdio
            means the stream is done. *)
         flush_pending ();
         respond [ line ];
         if P.parse_command line = Ok P.Quit || Serve.Server.draining server then quit := true
       end
     done
   with End_of_file -> flush_pending ())

(* ---- --smoke: the @serve-smoke self-test ---- *)

let smoke_fuzz_seed = 505
let smoke_fuzz_count = 50

let smoke_trace () =
  let registry =
    List.map
      (fun (spec : Workloads.Spec.t) ->
        P.Run
          (P.make_request ~id:0 ~warps:1 ?coarsen:spec.Workloads.Spec.coarsen
             ~args:spec.Workloads.Spec.args ~source:spec.Workloads.Spec.source ()))
      Workloads.Registry.all
  in
  let fuzzed =
    List.init smoke_fuzz_count (fun i ->
        let case = Fuzz.Gen.generate ~seed:smoke_fuzz_seed i in
        P.Run
          (P.make_request ~id:0 ~init:"data"
             ~source:(Front.Pretty.to_string case.Fuzz.Gen.ast)
             ()))
  in
  (* The registry twice: the second pass is the repeated-kernel traffic
     that must hit the compile cache. *)
  List.mapi
    (fun id -> function
      | P.Run r -> P.Run { r with P.id }
      | cmd -> cmd)
    (registry @ registry @ fuzzed)

(* Semantic echo of a response: everything except the cache status and
   cumulative counters, which legitimately change between soak passes
   (first sight is a miss, every replay a hit). *)
let semantic = function
  | P.Ok_run r ->
    P.print_response (P.Ok_run { r with P.cache = P.Miss; hits = 0; misses = 0; evictions = 0 })
  | other -> P.print_response other

(* ---- smoke legs: socket transport and persist round trip ---- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix ".d" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Bounded wait so a wedged child fails the smoke instead of hanging
   it. *)
let wait_child pid =
  let rec go n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, status -> Some status
  in
  go 200

let smoke_slice () =
  List.concat_map
    (fun (spec : Workloads.Spec.t) ->
      [
        P.print_command
          (P.Run
             (P.make_request ~id:0 ~warps:1 ?coarsen:spec.Workloads.Spec.coarsen
                ~args:spec.Workloads.Spec.args ~source:spec.Workloads.Spec.source ()));
      ])
    (List.filteri (fun i _ -> i < 6) Workloads.Registry.all)

let smoke_fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("serve-smoke: " ^ msg); true) fmt

(* The forked-server leg: a socket server must answer the same lines
   byte-identically to a fresh in-process engine, then drain cleanly on
   shutdown. Returns true on failure. *)
let smoke_socket () =
  let fail fmt = smoke_fail fmt in
  let dir = temp_dir "srserved_smoke" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket_path = Filename.concat dir "srserved.sock" in
  let lines = smoke_slice () @ [ P.print_command (P.Stats 99) ] in
  (* Fork before anything touches Domain_pool: OCaml 5 forbids
     Unix.fork in any process that has ever spawned a domain, and the
     in-process reference pass below fans out on a multicore machine. *)
  match Unix.fork () with
  | 0 ->
    (try
       Serve.Transport.serve
         (Serve.Server.create ~cache_capacity:64 ())
         ~socket_path ()
     with _ -> ());
    Unix._exit 0
  | pid ->
    let expect =
      Serve.Server.submit_lines (Serve.Server.create ~cache_capacity:64 ()) lines
    in
    let failed = ref false in
    (try
       let c = Serve.Client.connect socket_path in
       let got = Serve.Client.round_trip c lines in
       if got <> expect then
         failed := fail "socket responses diverged from the in-process engine";
       (* A second connection shares the (now warm) server: its first
          run must be a cache hit. *)
       let c2 = Serve.Client.connect socket_path in
       (match P.parse_response (Serve.Client.rpc c2 (List.hd lines)) with
       | Ok (P.Ok_run r) ->
         if r.P.cache <> P.Hit then
           failed := fail "second socket connection missed the shared cache"
       | _ -> failed := fail "second socket connection got a non-ok response");
       (match Serve.Client.round_trip c2 [ "shutdown" ] with
       | [ "bye" ] -> ()
       | other ->
         failed := fail "shutdown answered %s" (String.concat " | " other));
       Serve.Client.close c;
       Serve.Client.close c2
     with e -> failed := fail "socket leg raised: %s" (Printexc.to_string e));
    (match wait_child pid with
    | Some (Unix.WEXITED 0) -> ()
    | Some _ -> failed := fail "socket server child exited abnormally"
    | None -> failed := fail "socket server child hung after shutdown");
    !failed

(* The persist leg: a restarted server over the same store answers
   byte-identically without recompiling; corruption degrades to misses
   without changing a byte of the run responses. *)
let smoke_persist () =
  let fail fmt = smoke_fail fmt in
  let dir = temp_dir "srserved_persist" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let lines = smoke_slice () in
  let failed = ref false in
  let render () =
    Serve.Server.create ~cache_capacity:64 ~persist_dir:dir ()
  in
  let cold = render () in
  let cold_lines = Serve.Server.submit_lines cold lines in
  let warm = render () in
  let warm_lines = Serve.Server.submit_lines warm lines in
  if warm_lines <> cold_lines then
    failed := fail "restarted server's responses diverged from the cold run";
  if Serve.Server.persist_hits warm = 0 then
    failed := fail "restarted server compiled instead of loading the store";
  (* Truncate every artifact: the next generation must recompile,
     counting the damage, with an identical response stream. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".art" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let half = really_input_string ic (in_channel_length ic / 2) in
        close_in ic;
        let oc = open_out_bin path in
        output_string oc half;
        close_out oc
      end)
    (Sys.readdir dir);
  let hurt = render () in
  let hurt_lines = Serve.Server.submit_lines hurt lines in
  if hurt_lines <> cold_lines then
    failed := fail "post-corruption responses diverged from the cold run";
  if Serve.Server.persist_corrupt hurt = 0 then
    failed := fail "corrupt store entries were not detected";
  if Serve.Server.persist_hits hurt <> 0 then
    failed := fail "corrupt store entries served hits";
  !failed

let smoke () =
  let failed = ref false in
  (* The forked socket leg must come first: once the in-process passes
     below have spawned domains, Unix.fork is off the table for good. *)
  if smoke_socket () then failed := true;
  if smoke_persist () then failed := true;
  let server = Serve.Server.create ~cache_capacity:256 ~max_issues:100_000_000 () in
  let trace = smoke_trace () in
  let first = Serve.Server.submit server trace in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("serve-smoke: " ^ msg); true) fmt in
  let count pred = List.length (List.filter pred first) in
  let bad =
    count (function P.Error { kind = "malformed"; _ } | P.Overloaded _ -> true | _ -> false)
  in
  if bad > 0 then failed := fail "%d malformed/overloaded response(s)" bad;
  let errors = count (function P.Error _ -> true | _ -> false) in
  if errors > 0 then
    failed := fail "%d error response(s) on a trace that must be clean" errors;
  if Serve.Server.cache_hits server < List.length Workloads.Registry.all then
    failed :=
      fail "repeated registry kernels produced only %d cache hit(s)"
        (Serve.Server.cache_hits server);
  (* Soak: the same trace twice more against the warm server. Responses
     must be semantically identical pass over pass. *)
  let reference = List.map semantic first in
  for pass = 2 to 3 do
    let again = List.map semantic (Serve.Server.submit server trace) in
    if again <> reference then
      failed := fail "soak pass %d diverged from the first response stream" pass
  done;
  Printf.printf
    "serve-smoke: %d requests x 3 passes: %d served, cache hits=%d misses=%d evictions=%d \
     entries=%d; socket and persist legs ok=%b\n"
    (List.length trace) (Serve.Server.served server) (Serve.Server.cache_hits server)
    (Serve.Server.cache_misses server)
    (Serve.Server.cache_evictions server)
    (Serve.Server.cache_entries server) (not !failed);
  if !failed then raise (Core.Cli.Error Core.Cli.Findings)

(* ---- CLI ---- *)

let main smoke_flag trace socket persist cache_capacity max_batch max_inflight max_issues
    deadline retry_after read_timeout max_line race_gate =
  if cache_capacity < 0 then usage "--cache-capacity must be >= 0";
  if max_batch < 1 then usage "--max-batch must be >= 1";
  if max_inflight < 1 then usage "--max-inflight must be >= 1";
  if deadline < 0 then usage "--deadline must be >= 0 (0 = unlimited)";
  if retry_after < 0 then usage "--retry-after must be >= 0";
  if read_timeout <= 0.0 then usage "--read-timeout must be positive";
  if max_line < 1 then usage "--max-line must be >= 1";
  if socket <> None && trace <> None then usage "--socket and --trace are mutually exclusive";
  if smoke_flag then smoke ()
  else begin
    let server =
      Serve.Server.create ~cache_capacity ~max_inflight ~max_issues ~fuel:deadline
        ?persist_dir:persist ~retry_after ~race_gate ()
    in
    match socket with
    | Some socket_path ->
      (* SIGTERM drains like a shutdown command: in-flight work answers,
         everyone gets bye, exit 0. *)
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Serve.Server.drain server));
      Serve.Transport.serve ~max_batch ~read_timeout ~max_line server ~socket_path ()
    | None -> (
      match trace with
      | None -> serve_channel server ~max_batch stdin
      | Some path ->
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> serve_channel server ~max_batch ic))
  end

open Cmdliner

let cmd =
  Cmd.v
    (Cmd.info "srserved"
       ~doc:
         "Batched compile-and-simulate service over stdio: newline-delimited kernel-launch \
          requests against a content-addressed compile cache, sharded across cores with \
          deterministic response ordering and explicit overload backpressure")
    Term.(
      const main
      $ Arg.(
          value & flag
          & info [ "smoke" ]
              ~doc:
                "Run the in-process self-test (registry twice + a fixed-seed fuzz slice + a \
                 soak replay) and exit")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE" ~doc:"Serve request lines from $(docv) instead of stdin")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "socket" ] ~docv:"PATH"
              ~doc:
                "Serve concurrent connections over a Unix-domain socket at $(docv) instead of \
                 stdio; per-connection batching, timeouts and error isolation")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "persist" ] ~docv:"DIR"
              ~doc:
                "Write-through compile artifacts to a crash-safe store in $(docv); a restarted \
                 server answers repeated kernels without recompiling")
      $ Arg.(
          value & opt int 128
          & info [ "cache-capacity" ] ~doc:"Compile-cache entries (0 disables caching)")
      $ Arg.(
          value & opt int 64
          & info [ "max-batch" ] ~doc:"Run requests accumulated before a batch flushes")
      $ Arg.(
          value & opt int 256
          & info [ "max-inflight" ]
              ~doc:
                "Launches admitted per batch segment; requests beyond the bound receive an \
                 overloaded response instead of queueing")
      $ Arg.(
          value & opt int 1_500_000
          & info [ "max-issues" ] ~doc:"Per-launch issue budget (the runaway cap)")
      $ Arg.(
          value & opt int 0
          & info [ "deadline" ] ~docv:"FUEL"
              ~doc:
                "Default per-launch fuel budget, answered with a deadline response when \
                 exhausted (0 = unlimited; requests override with deadline=)")
      $ Arg.(
          value & opt int 1
          & info [ "retry-after" ] ~docv:"SECONDS"
              ~doc:"Back-off hint attached to overloaded responses while draining")
      $ Arg.(
          value & opt float 30.0
          & info [ "read-timeout" ] ~docv:"SECONDS"
              ~doc:
                "Socket mode: close a connection holding a torn request line longer than \
                 $(docv) (slow-loris guard)")
      $ Arg.(
          value & opt int 1_000_000
          & info [ "max-line" ] ~docv:"BYTES"
              ~doc:"Socket mode: reject request lines longer than $(docv)")
      $ Arg.(
          value & flag
          & info [ "race-gate" ]
              ~doc:
                "Refuse to launch programs with static data-race findings (srcc --race): \
                 such requests are answered with an error response of kind race instead of \
                 executing"))

let () =
  let code = Core.Cli.handle (fun () -> Cmd.eval ~catch:false cmd) in
  exit (if code = Cmd.Exit.cli_error then Core.Cli.exit_code (Core.Cli.Usage "") else code)
