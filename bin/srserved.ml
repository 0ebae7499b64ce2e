(* srserved: a long-lived compile-and-simulate service.

   Reads newline-delimited requests (Serve.Protocol) from stdin — or
   from --trace FILE, or over a Unix-domain socket with --socket PATH —
   and answers each request line as soon as it is read, one response
   line per request line, in order; a blank line gets no response. A
   line ends at its newline: an unterminated last line is a torn request
   and is dropped unanswered at end of input, on stdin, --trace and the
   socket alike. A
   `run` is resolved through the content-addressed cache (a kernel
   compiles only on a miss) and launched before the next line is read.
   `stats` reports the cache counters, `quit` answers `bye` and exits 0
   (over a socket: ends that connection). `shutdown` — or SIGTERM in
   socket mode — drains gracefully: the launch under way completes and
   answers, later runs bounce with `overloaded retry-after=N`, everyone
   gets `bye`, exit 0. Malformed lines get `error` responses (usage
   code) without disturbing the stream; the server never dies on bad
   input.

   --persist DIR write-through-caches compile artifacts to a crash-safe
   on-disk store: a restarted server answers repeated kernels without
   recompiling, and corrupt/truncated entries silently degrade to
   misses (visible as phits/pcorrupt in `stats`). --deadline FUEL
   bounds every launch (requests may override with deadline=), answered
   with a `deadline` response rather than an error. *)

let usage msg = raise (Core.Cli.Error (Core.Cli.Usage msg))

let main trace socket persist cache_capacity max_issues deadline retry_after read_timeout
    max_line race_gate =
  if cache_capacity < 0 then usage "--cache-capacity must be >= 0";
  if deadline < 0 then usage "--deadline must be >= 0 (0 = unlimited)";
  if retry_after < 0 then usage "--retry-after must be >= 0";
  if read_timeout <= 0.0 then usage "--read-timeout must be positive";
  if max_line < 1 then usage "--max-line must be >= 1";
  if socket <> None && trace <> None then usage "--socket and --trace are mutually exclusive";
  let server =
    Serve.Server.create ~cache_capacity ~max_issues ~fuel:deadline ?persist_dir:persist
      ~retry_after ~race_gate ()
  in
  match socket with
  | Some socket_path ->
    (* SIGTERM drains like a shutdown command: the launch under way answers,
       everyone gets bye, exit 0. *)
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Serve.Server.drain server));
    Serve.Transport.serve ~read_timeout ~max_line server ~socket_path ()
  | None -> (
    match trace with
    | None -> Serve.Transport.serve_channel server stdin stdout
    | Some path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Transport.serve_channel server ic stdout))

open Cmdliner

let cmd =
  Cmd.v
    (Cmd.info "srserved"
       ~doc:
         "Compile-and-simulate service over stdio: newline-delimited kernel-launch requests \
          against a content-addressed compile cache, each answered in order as it is read")
    Term.(
      const main
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
                 stdio; per-connection timeouts and error isolation")
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
