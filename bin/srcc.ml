(* srcc: the MiniSIMT compiler driver.

   Parses a .simt file, runs the selected synchronization pipeline, and
   dumps the result (IR, disassembly, applied hints, analyses).

   Failure modes map to distinct exit codes via Core.Cli: 1 lint
   findings, 2 usage, 3 i/o, 4 lex/parse, 5 compile. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type dump =
  | Dump_ir
  | Dump_asm
  | Dump_decoded
  | Dump_hints
  | Dump_analysis
  | Dump_candidates
  | Dump_source

let run path mode coarsen threshold dumps lint_mode no_lint no_deconflict race_mode no_race
    fix fix_dry_run fix_budget =
  let mode =
    match List.assoc_opt mode Core.Compile.modes with
    | Some mode -> mode
    | None -> raise (Core.Cli.Error (Core.Cli.Usage ("unknown mode " ^ mode)))
  in
  (
    let repair =
      if fix || fix_dry_run then
        Core.Compile.Repair { dry_run = fix_dry_run; max_edits = fix_budget }
      else Core.Compile.No_repair
    in
    (* --lint collects findings itself (machine-readable, exit 1);
       --no-lint demotes them to warnings. Either way compilation must
       not abort on findings, so lint=false below. --fix-dry-run also
       compiles with lint off so the proposed plan can be printed; an
       unrepairable dry run re-raises the lint error itself below,
       keeping the exit code identical to --fix. *)
    let options =
      { Core.Compile.mode;
        coarsen;
        threshold = Core.Compile.threshold_of_option threshold;
        cleanup = true;
        lint = not (lint_mode || no_lint || fix_dry_run);
        deconflict = not no_deconflict;
        race = race_mode || not no_race;
        repair }
    in
    let source = read_file path in
    (* --dump source prints the (possibly coarsened) program back as
       MiniSIMT text *)
    List.iter
      (fun d ->
        if d = Dump_source then begin
          let ast = Front.Parser.parse_string source in
          let ast =
            match coarsen with Some f -> Front.Coarsen.apply ast ~factor:f | None -> ast
          in
          print_string (Front.Pretty.to_string ast)
        end)
      dumps;
    match Core.Compile.compile options ~source with
    | compiled when lint_mode ->
      let findings = compiled.Core.Compile.lint_findings in
      List.iter
        (fun f -> Format.printf "%a@." Analysis.Barrier_safety.pp_machine f)
        findings;
      Format.printf "srlint: %d finding(s) in %s@." (List.length findings) path;
      if findings <> [] then raise (Core.Cli.Error Core.Cli.Findings)
    | compiled ->
      (* Findings lint=false let through (--no-lint, --fix-dry-run) are
         warnings; with lint on, the compile would have failed. *)
      List.iter
        (fun f -> Format.eprintf "warning: %a@." Analysis.Barrier_safety.pp_machine f)
        compiled.Core.Compile.lint_findings;
      (* Race stage reporting mirrors srlint: --race collects the
         findings as machine-readable srrace: lines and exits 1 on any;
         by default they are demoted to stderr warnings (a race can be
         source-level, so an ordinary compile still succeeds). *)
      let race_findings = compiled.Core.Compile.race_findings in
      if race_mode then begin
        List.iter
          (fun f -> Format.printf "%a@." Analysis.Race_safety.pp_machine f)
          race_findings;
        Format.printf "srrace: %d finding(s) in %s@." (List.length race_findings) path;
        if race_findings <> [] then raise (Core.Cli.Error Core.Cli.Findings)
      end
      else
        List.iter
          (fun f -> Format.eprintf "warning: %a@." Analysis.Race_safety.pp_machine f)
          race_findings;
      (match compiled.Core.Compile.repair_report with
      | None -> ()
      | Some r -> (
        match r.Core.Compile.outcome with
        | Analysis.Barrier_repair.Clean ->
          Format.printf "srfix: clean (no barrier-safety findings; nothing to repair)@."
        | Analysis.Barrier_repair.Repaired { edits; cost; explored; _ } ->
          List.iter
            (fun e -> Format.printf "%a@." Analysis.Barrier_repair.pp_edit_machine e)
            edits;
          Format.printf
            "srfix: repaired %d finding(s) with %d edit(s), cost %.0f, explored %d state(s)@."
            (List.length r.Core.Compile.pre_findings)
            (List.length edits) cost explored;
          if not fix_dry_run then
            print_string
              (Support.Udiff.render_strings
                 ~from_label:(path ^ " (before)")
                 ~to_label:(path ^ " (after)")
                 (Format.asprintf "%a" Ir.Linear.pp r.Core.Compile.before)
                 (Format.asprintf "%a" Ir.Linear.pp compiled.Core.Compile.linear))
        | Analysis.Barrier_repair.Unrepairable { blocking; explored } ->
          (* Only reachable under --fix-dry-run (non-dry --fix hard-errors
             inside Compile): print the findings the plan was asked to
             clear, then fail with the same outcome --fix would. *)
          List.iter
            (fun f -> Format.printf "%a@." Analysis.Barrier_safety.pp_machine f)
            r.Core.Compile.pre_findings;
          raise
            (Core.Cli.Error
               (Core.Cli.Compile_error
                  (Format.asprintf
                     "srfix: unrepairable after exploring %d candidate(s); blocked by: %a"
                     explored Analysis.Barrier_safety.pp_machine blocking)))));
      let dump = function
        | Dump_ir -> Format.printf "%a@." Ir.Printer.pp_program compiled.Core.Compile.program
        | Dump_asm -> Format.printf "%a@." Ir.Linear.pp compiled.Core.Compile.linear
        | Dump_decoded -> Format.printf "%a@." Ir.Decoded.pp compiled.Core.Compile.decoded
        | Dump_hints ->
          List.iter
            (fun a -> Format.printf "%a@." Passes.Specrecon.pp_applied a)
            compiled.Core.Compile.applied;
          List.iter
            (fun a -> Format.printf "%a@." Passes.Interproc.pp_applied a)
            compiled.Core.Compile.interproc_applied;
          (match compiled.Core.Compile.deconflict_report with
          | None -> ()
          | Some r ->
            List.iter
              (fun (res : Passes.Deconflict.resolution) ->
                Format.printf "deconflict: kept b%d, demoted b%d (%s)@." res.kept res.demoted
                  (match res.strategy with
                  | Passes.Deconflict.Static -> "static"
                  | Passes.Deconflict.Dynamic -> "dynamic"))
              r.resolutions;
            List.iter
              (fun (f, x, y) -> Format.printf "deconflict: UNRESOLVED %s b%d b%d@." f x y)
              r.unresolved)
        | Dump_analysis ->
          let divergence = Analysis.Divergence.run compiled.Core.Compile.program in
          Format.printf "%a@." Analysis.Divergence.pp divergence
        | Dump_candidates ->
          List.iter
            (fun c -> Format.printf "%a@." Passes.Auto_detect.pp_candidate c)
            compiled.Core.Compile.candidates
        | Dump_source -> () (* handled before compilation *)
      in
      List.iter dump dumps;
      if dumps = [] then
        Format.printf "compiled %s: %d instructions, %d barriers@." path
          (Array.length compiled.Core.Compile.linear.Ir.Linear.code)
          compiled.Core.Compile.linear.Ir.Linear.n_barriers)

open Cmdliner

(* Arg.string, not Arg.file: a missing path should surface as the i/o
   outcome (exit 3), not cmdliner's usage error. *)
let path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"MiniSIMT source file")

let mode_arg =
  Arg.(
    value
    & opt string "specrecon"
    & info [ "mode" ]
        ~doc:
          "Compilation mode: baseline (PDOM only), specrecon (dynamic deconfliction), \
           specrecon-static, auto (automatic detection), none")

let coarsen_arg =
  Arg.(value & opt (some int) None & info [ "coarsen" ] ~doc:"Thread-coarsening factor")

let threshold_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threshold" ]
        ~doc:"Override soft-barrier threshold (negative forces hard barriers)")

let dumps_arg =
  let conv_dump =
    Arg.enum
      [
        ("ir", Dump_ir);
        ("asm", Dump_asm);
        ("decoded", Dump_decoded);
        ("hints", Dump_hints);
        ("analysis", Dump_analysis);
        ("candidates", Dump_candidates);
        ("source", Dump_source);
      ]
  in
  Arg.(
    value & opt_all conv_dump []
    & info [ "dump" ]
        ~doc:
          "What to print: ir|asm|decoded|hints|analysis|candidates|source (decoded: the \
           pre-decoded descriptor array the interpreter executes, one line per slot)")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static barrier-safety checker (srlint) and print machine-readable \
           diagnostics; exit 1 if any finding")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ]
        ~doc:"Demote barrier-safety findings from hard errors to warnings on stderr")

let no_deconflict_arg =
  Arg.(
    value & flag
    & info [ "no-deconflict" ]
        ~doc:
          "Skip barrier deconfliction, shipping conflicting placements as-is (for the \
           fault-injection harness; run with srrun --yield)")

let race_arg =
  Arg.(
    value & flag
    & info [ "race" ]
        ~doc:
          "Run the static data-race checker (srrace) over barrier intervals and print \
           machine-readable diagnostics; exit 1 if any finding. Under the speculative \
           modes, findings absent from the PDOM placement of the same source are \
           upgraded to race-introduced")

let no_race_arg =
  Arg.(
    value & flag
    & info [ "no-race" ] ~doc:"Skip the static data-race checker entirely")

let fix_arg =
  Arg.(
    value & flag
    & info [ "fix" ]
        ~doc:
          "Repair barrier-safety findings: synthesize a minimal edit sequence the checker \
           re-proves deadlock-free, apply it, and print the edits plus a unified \
           before/after diff of the linear code. Unrepairable programs keep the lint hard \
           error and exit code")

let fix_dry_run_arg =
  Arg.(
    value & flag
    & info [ "fix-dry-run" ]
        ~doc:
          "Like --fix but only print the proposed edit plan as machine-readable srfix: \
           lines; the program is compiled unrepaired")

let fix_budget_arg =
  Arg.(
    value
    & opt int Analysis.Barrier_repair.default_max_edits
    & info [ "fix-budget" ] ~docv:"N" ~doc:"Maximum number of edits --fix may combine")

let cmd =
  Cmd.v
    (Cmd.info "srcc" ~doc:"MiniSIMT compiler with Speculative Reconvergence")
    Term.(
      const run $ path_arg $ mode_arg $ coarsen_arg $ threshold_arg $ dumps_arg $ lint_arg
      $ no_lint_arg $ no_deconflict_arg $ race_arg $ no_race_arg $ fix_arg $ fix_dry_run_arg
      $ fix_budget_arg)

let () =
  let code = Core.Cli.handle (fun () -> Cmd.eval ~catch:false cmd) in
  exit (if code = Cmd.Exit.cli_error then Core.Cli.exit_code (Core.Cli.Usage "") else code)
