(* srfuzz: seeded differential fuzzing of the MiniSIMT toolchain.

   Generates typed random kernels (biased toward the paper's divergence
   shapes), runs every differential oracle — parse/pretty round trip,
   per-stage IR verification, baseline-vs-specrecon memory equivalence
   across scheduler policies, deadlock/runtime-error classification, and
   (with --chaos N) N seeded fault-injection plans per clean program —
   shrinks any failure, and optionally writes the minimized repro into a
   regression corpus directory. Exit status 1 when violations remain.

   --serve-chaos N runs the service chaos tier instead: N seeded
   transport-fault plans against forked srserved socket servers, plus
   the kill-9/restart persistence oracle (Fuzz.Serve_chaos). *)

let serve_chaos_campaign ~seed ~count ~plans ~max_issues ~chaos_seed =
  let c =
    Fuzz.Serve_chaos.run ~count ~plans ?chaos_seed ~max_issues ~seed ()
  in
  Format.printf
    "serve-chaos campaign seed %d: %d trace replays across %d fault plans (+ persistence \
     generations): %d violation(s)@."
    seed c.Fuzz.Serve_chaos.replays c.Fuzz.Serve_chaos.plans
    (List.length c.Fuzz.Serve_chaos.violations);
  List.iter
    (fun (v : Fuzz.Oracle.violation) ->
      Format.printf "VIOLATION [%s] %s@."
        (Fuzz.Oracle.kind_name v.Fuzz.Oracle.kind)
        v.Fuzz.Oracle.detail)
    c.Fuzz.Serve_chaos.violations;
  if c.Fuzz.Serve_chaos.violations <> [] then raise (Core.Cli.Error Core.Cli.Findings)

let main seed count save max_issues chaos chaos_seed shrink_budget repair serve_chaos
    verbose =
  if serve_chaos > 0 then
    serve_chaos_campaign ~seed ~count ~plans:serve_chaos
      ~max_issues:(min max_issues 200_000) ~chaos_seed
  else begin
  let repair = if repair = 0 then None else Some repair in
  let report =
    Fuzz.Driver.run ~max_issues ~chaos ?chaos_seed ~shrink_budget ?repair ~seed ~count ()
  in
  Format.printf "%a" Fuzz.Driver.pp_report report;
  (match save with
  | None -> ()
  | Some dir ->
    List.iter
      (fun f ->
        let path = Fuzz.Driver.save_corpus ~dir ~seed f in
        Format.printf "wrote %s@." path)
      report.Fuzz.Driver.findings);
  if verbose then
    List.iter
      (fun (f : Fuzz.Driver.finding) ->
        Format.printf "---- shrunk repro [%d] ----@.%s@." f.Fuzz.Driver.id
          (Front.Pretty.to_string f.Fuzz.Driver.shrunk))
      report.Fuzz.Driver.findings;
  if report.Fuzz.Driver.findings <> [] then raise (Core.Cli.Error Core.Cli.Findings)
  end

open Cmdliner

let cmd =
  Cmd.v
    (Cmd.info "srfuzz"
       ~doc:
         "Differential fuzzing of the MiniSIMT compiler and SIMT simulator: every generated \
          kernel must produce byte-identical memory under PDOM-only and speculative-reconvergence \
          compilation, across scheduler policies, with no deadlock and no runtime error — and, \
          under --chaos fault plans, survive injected faults with yield recovery enabled")
    Term.(
      const main
      $ Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed")
      $ Arg.(value & opt int 1000 & info [ "count" ] ~doc:"Number of programs to generate")
      $ Arg.(
          value
          & opt (some dir) None
          & info [ "save" ] ~docv:"DIR" ~doc:"Write shrunk repros into $(docv)")
      $ Arg.(
          value & opt int 1_500_000
          & info [ "max-issues" ] ~doc:"Per-run issue budget (the runaway cap)")
      $ Arg.(
          value & opt int 0
          & info [ "chaos" ] ~docv:"N"
              ~doc:"Fault-injection plans per clean program (0 disables the chaos tier)")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chaos-seed" ] ~doc:"Root seed for the fault plans")
      $ Arg.(value & opt int 300 & info [ "shrink-budget" ] ~doc:"Oracle evaluations per shrink")
      $ Arg.(
          value & opt int 0
          & info [ "repair" ] ~docv:"N"
              ~doc:
                "Run the repair tier instead of the standard matrix: mutate each program's \
                 barrier placement $(docv) times and require srcc --fix to repair every \
                 flagged mutant (or name the blocking finding); 0 disables")
      $ Arg.(
          value & opt int 0
          & info [ "serve-chaos" ] ~docv:"N"
              ~doc:
                "Run the service chaos tier instead of the standard matrix: replay a \
                 generated request trace (--count requests) against forked srserved \
                 socket servers under $(docv) seeded transport-fault plans, plus the \
                 kill-9/restart persistence oracle; 0 disables")
      $ Arg.(value & flag & info [ "verbose" ] ~doc:"Print shrunk repro sources"))

let () =
  let code = Core.Cli.handle (fun () -> Cmd.eval ~catch:false cmd) in
  exit (if code = Cmd.Exit.cli_error then Core.Cli.exit_code (Core.Cli.Usage "") else code)
