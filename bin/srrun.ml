(* srrun: compile a MiniSIMT file and execute it on the SIMT simulator,
   reporting nvprof-style metrics.

   Failure modes map to distinct exit codes via Core.Cli: 2 usage,
   3 i/o, 4 lex/parse, 5 compile, 6 deadlock, 7 runtime/runaway,
   8 baseline mismatch, 9 deadline (--deadline fuel exhausted). *)

let usage msg = raise (Core.Cli.Error (Core.Cli.Usage msg))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_args args =
  List.map
    (fun s ->
      match int_of_string_opt s with
      | Some i -> Ir.Types.I i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Ir.Types.F f
        | None -> usage (Printf.sprintf "bad kernel argument %S (expected int or float)" s)))
    args

let lookup what names name =
  match List.assoc_opt name names with
  | Some v -> v
  | None -> usage (Printf.sprintf "unknown %s %s" what name)

let run path mode coarsen threshold warps warp_size policy seed deadline yield yield_policy chaos
    replay fault_trace no_deconflict no_lint fix race_check digest check_baseline entry args =
  if deadline < 0 then usage "--deadline must be >= 0 (0 = unlimited)";
  let mode = lookup "mode" Core.Compile.modes mode in
  let threshold = Core.Compile.threshold_of_option threshold in
  let config =
    { Simt.Config.default with
      Simt.Config.n_warps = warps;
      warp_size;
      policy = lookup "policy" Simt.Config.policies policy;
      seed;
      fuel = deadline;
      yield_on_stall = yield;
      yield_policy = lookup "yield policy" Simt.Config.yield_policies yield_policy }
  in
  let options =
    { Core.Compile.mode;
      coarsen;
      threshold;
      cleanup = true;
      lint = not no_lint;
      deconflict = not no_deconflict;
      race = true;
      repair =
        (if fix then
           Core.Compile.Repair
             { dry_run = false; max_edits = Analysis.Barrier_repair.default_max_edits }
         else Core.Compile.No_repair) }
  in
  let source = read_file path in
  let args = parse_args args in
  let faults =
    match (chaos, replay) with
    | Some _, Some _ -> usage "--chaos and --replay are mutually exclusive"
    | Some fault_seed, None -> Some (Simt.Faults.create ~seed:fault_seed)
    | None, Some file -> (
      match Simt.Faults.parse_trace (read_file file) with
      | events -> Some (Simt.Faults.replay events)
      | exception Failure msg -> usage (Printf.sprintf "bad fault trace %s: %s" file msg))
    | None, None -> None
  in
  if fault_trace <> None && faults = None then
    usage "--fault-trace requires a fault source (--chaos or --replay)";
  (* Findings lint=false lets through (--no-lint, the --check-baseline
     reference build) are warnings; with lint on, the compile would have
     failed. *)
  let compile options =
    let compiled = Core.Compile.compile options ~source in
    List.iter
      (fun f -> Format.eprintf "warning: %a@." Analysis.Barrier_safety.pp_machine f)
      compiled.Core.Compile.lint_findings;
    compiled
  in
  let compiled = compile options in
  let race =
    if race_check then
      Some
        (Simt.Race_log.create
           ~size:compiled.Core.Compile.program.Ir.Types.mem_size
           ~n_warps:warps ())
    else None
  in
  let outcome = Core.Runner.launch ~config ?faults ?race ?entry compiled ~args in
  Format.printf "%a@." Simt.Metrics.pp outcome.Core.Runner.metrics;
  Format.printf "simt efficiency: %.2f%%@." (100.0 *. Core.Runner.efficiency outcome);
  if digest then
    Format.printf "memory digest: %016x@." (Simt.Memsys.digest outcome.Core.Runner.memory);
  (match (fault_trace, faults) with
  | Some file, Some f ->
    let events = Simt.Faults.events f in
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Simt.Faults.trace_to_string events));
    Format.printf "fault trace: %d event(s) written to %s@." (List.length events) file
  | _ -> ());
  if check_baseline then begin
    (* The ground truth: PDOM-only compilation, no faults, no yields.
       The main run — whatever was injected or yielded — must land on
       the same memory image. *)
    let base_options =
      { Core.Compile.mode = Core.Compile.Baseline;
        coarsen;
        threshold;
        cleanup = true;
        lint = false;
        deconflict = true;
        race = false;
        repair = Core.Compile.No_repair }
    in
    let base_config = { config with Simt.Config.yield_on_stall = false } in
    let base = Core.Runner.launch ~config:base_config ?entry (compile base_options) ~args in
    let got = Simt.Memsys.digest outcome.Core.Runner.memory in
    let want = Simt.Memsys.digest base.Core.Runner.memory in
    if got <> want then
      raise
        (Core.Cli.Error
           (Core.Cli.Baseline_mismatch
              (Printf.sprintf "memory digest %016x, unfaulted PDOM baseline %016x" got want)))
    else Format.printf "baseline check: ok (digest %016x)@." got
  end;
  match race with
  | None -> ()
  | Some rl ->
    List.iter (fun ev -> Format.printf "%a@." Simt.Race_log.pp_event ev) (Simt.Race_log.events rl);
    Format.printf "race check: %d race(s) detected@." (Simt.Race_log.total rl);
    if Simt.Race_log.total rl > 0 then raise (Core.Cli.Error Core.Cli.Findings)

open Cmdliner

let cmd =
  (* Arg.string, not Arg.file: a missing path should surface as the
     i/o outcome (exit 3), not cmdliner's usage error. *)
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let mode = Arg.(value & opt string "specrecon" & info [ "mode" ]) in
  let coarsen = Arg.(value & opt (some int) None & info [ "coarsen" ]) in
  let threshold = Arg.(value & opt (some int) None & info [ "threshold" ]) in
  let warps = Arg.(value & opt int Simt.Config.default.Simt.Config.n_warps & info [ "warps" ]) in
  let warp_size =
    Arg.(value & opt int Simt.Config.default.Simt.Config.warp_size & info [ "warp-size" ])
  in
  let policy = Arg.(value & opt string "most-threads" & info [ "policy" ]) in
  let seed = Arg.(value & opt int Simt.Config.default.Simt.Config.seed & info [ "seed" ]) in
  let deadline =
    Arg.(
      value & opt int 0
      & info [ "deadline" ] ~docv:"FUEL"
          ~doc:
            "Stop the run deterministically after $(docv) issued instructions (exit 9); 0 \
             disables the deadline")
  in
  let yield =
    Arg.(
      value & flag
      & info [ "yield" ]
          ~doc:
            "Enable yield recovery: when every runnable group of a warp is blocked on \
             convergence barriers, force-release a victim barrier instead of deadlocking")
  in
  let yield_policy =
    Arg.(
      value
      & opt string "oldest-arrival"
      & info [ "yield-policy" ]
          ~doc:("Victim selection: " ^ String.concat "|" (List.map fst Simt.Config.yield_policies)))
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED" ~doc:"Inject seeded faults during execution")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TRACE" ~doc:"Replay a recorded fault trace file")
  in
  let fault_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-trace" ] ~docv:"FILE" ~doc:"Write the applied fault trace to $(docv)")
  in
  let no_deconflict =
    Arg.(
      value & flag
      & info [ "no-deconflict" ]
          ~doc:"Skip barrier deconfliction (ships conflicting placements; pair with --yield)")
  in
  let no_lint =
    Arg.(
      value & flag
      & info [ "no-lint" ] ~doc:"Demote barrier-safety findings to warnings on stderr")
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Repair barrier-safety findings before running (srcc --fix); unrepairable \
             programs keep the lint hard error")
  in
  let race_check =
    Arg.(
      value & flag
      & info [ "race-check" ]
          ~doc:
            "Attach the shadow-memory race logger: report every pair of same-cell accesses \
             by different threads of one warp in one barrier interval (at least one a \
             write), and exit 1 if any — the dynamic ground truth behind srcc --race")
  in
  let digest =
    Arg.(value & flag & info [ "digest" ] ~doc:"Print the final memory digest")
  in
  let check_baseline =
    Arg.(
      value & flag
      & info [ "check-baseline" ]
          ~doc:
            "Also run the unfaulted PDOM baseline and require bit-identical memory (exit 8 on \
             mismatch)")
  in
  let entry =
    Arg.(
      value
      & opt (some string) None
      & info [ "entry" ] ~docv:"KERNEL" ~doc:"Launch this kernel instead of the program default")
  in
  let kargs = Arg.(value & opt_all string [] & info [ "arg" ] ~doc:"Kernel argument (repeatable)") in
  Cmd.v
    (Cmd.info "srrun" ~doc:"Run a MiniSIMT kernel on the SIMT simulator")
    Term.(
      const run $ path $ mode $ coarsen $ threshold $ warps $ warp_size $ policy $ seed
      $ deadline $ yield $ yield_policy $ chaos $ replay $ fault_trace $ no_deconflict $ no_lint
      $ fix $ race_check $ digest $ check_baseline $ entry $ kargs)

let () =
  let code = Core.Cli.handle (fun () -> Cmd.eval ~catch:false cmd) in
  exit (if code = Cmd.Exit.cli_error then Core.Cli.exit_code (Core.Cli.Usage "") else code)
