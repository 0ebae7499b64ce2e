(* Structured CLI failure handling (Core.Cli): one expectation per
   failure mode — the exception each tool can hit, the outcome it
   classifies to, its stable exit code, and its one-line diagnostic. *)

module Cli = Core.Cli

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pos = { Front.Ast.line = 3; col = 7 }

let test_exit_codes () =
  let expect code outcome = check_int (Cli.describe outcome) code (Cli.exit_code outcome) in
  expect 0 Cli.Ok_exit;
  expect 1 Cli.Findings;
  expect 2 (Cli.Usage "bad flag");
  expect 3 (Cli.Io_error "gone");
  expect 4 (Cli.Syntax_error "3:7: unexpected token");
  expect 5 (Cli.Compile_error "no kernel declared");
  expect 6 (Cli.Deadlock "all live threads blocked");
  expect 7 (Cli.Runtime_failure "division by zero");
  expect 8 (Cli.Baseline_mismatch "digest a, baseline b");
  expect 9 (Cli.Deadline_exceeded "issue budget 50 exhausted")

let test_classify_per_failure_mode () =
  let expect name exn outcome = check_bool name true (Cli.classify exn = Some outcome) in
  expect "missing file -> i/o (3)" (Sys_error "nope.simt: No such file or directory")
    (Cli.Io_error "nope.simt: No such file or directory");
  expect "lex error -> syntax (4)"
    (Front.Lexer.Lex_error (pos, "stray '@'"))
    (Cli.Syntax_error "3:7: stray '@'");
  expect "parse error -> syntax (4)"
    (Front.Parser.Parse_error (pos, "expected ')'"))
    (Cli.Syntax_error "3:7: expected ')'");
  expect "lowering error -> compile (5)"
    (Front.Lower.Lower_error (pos, "unknown variable x"))
    (Cli.Compile_error "3:7: unknown variable x");
  expect "bad kernel args -> usage (2)"
    (Invalid_argument "Interp.run: kernel k expects 1 args, got 0")
    (Cli.Usage "Interp.run: kernel k expects 1 args, got 0");
  expect "deadlock -> deadlock (6)" (Simt.Interp.Deadlock "stuck") (Cli.Deadlock "stuck");
  expect "runtime error -> runtime (7)"
    (Simt.Interp.Runtime_error "out of bounds")
    (Cli.Runtime_failure "out of bounds");
  expect "runaway -> runtime (7)"
    (Simt.Interp.Out_of_budget (Simt.Interp.Issue_cap, "issue budget"))
    (Cli.Runtime_failure "runaway: issue budget");
  expect "deadline -> deadline (9)"
    (Simt.Interp.Out_of_budget (Simt.Interp.Fuel, "fuel 50 exhausted"))
    (Cli.Deadline_exceeded "fuel 50 exhausted");
  expect "tool-raised outcome passes through" (Cli.Error (Cli.Baseline_mismatch "x"))
    (Cli.Baseline_mismatch "x");
  (* Failure diagnostics are truncated to their first line. *)
  expect "failure -> compile (5), one line"
    (Failure "bad fault trace\nline 2\nline 3")
    (Cli.Compile_error "bad fault trace [...]");
  check_bool "unrecognized exceptions are not swallowed" true (Cli.classify Exit = None)

let test_describe_one_line () =
  (* Everything is a one-liner except the deadlock report, whose
     waits-for cycle is the point of the diagnostic. *)
  List.iter
    (fun outcome ->
      check_bool (Cli.describe outcome) false (String.contains (Cli.describe outcome) '\n'))
    [
      Cli.Ok_exit;
      Cli.Findings;
      Cli.Usage "u";
      Cli.Io_error "i";
      Cli.Syntax_error "s";
      Cli.Compile_error "c";
      Cli.Runtime_failure "r";
      Cli.Baseline_mismatch "b";
      Cli.Deadline_exceeded "d";
    ];
  check_bool "deadlock keeps its report lines" true
    (String.contains (Cli.describe (Cli.Deadlock "cycle:\nb0 -> b1")) '\n')

let test_handle () =
  check_int "passes through the inner exit code" 0 (Cli.handle (fun () -> 0));
  check_int "maps a recognized exception" 6
    (Cli.handle (fun () -> raise (Simt.Interp.Deadlock "stuck")));
  check_int "maps a tool-raised outcome" 8
    (Cli.handle (fun () -> raise (Cli.Error (Cli.Baseline_mismatch "x"))));
  match Cli.handle (fun () -> raise Exit) with
  | exception Exit -> ()
  | code -> Alcotest.failf "tool bugs must crash loudly, got exit %d" code

(* ---- the srcc --fix exit-code contract, end to end ----

   A corpus deadlock repro compiled speculatively without deconfliction
   is the canonical flagged program: --fix must repair it (exit 0),
   --fix-dry-run must plan without failing the build (exit 0), and a
   zero-edit budget must keep the lint hard error (exit 5,
   Compile_error) in both modes — no new exit codes. *)

let srcc args =
  Sys.command (Printf.sprintf "../bin/srcc.exe %s > /dev/null 2>&1" args)

let repro = "corpus/srfuzz_42_114_deadlock.simt --mode specrecon --no-deconflict"

let test_srcc_fix_exit_codes () =
  check_int "flagged placement without --fix keeps the lint error (5)"
    (Cli.exit_code (Cli.Compile_error "")) (srcc repro);
  check_int "--fix repairs it (0)" (Cli.exit_code Cli.Ok_exit) (srcc (repro ^ " --fix"));
  check_int "--fix-dry-run plans without failing the build (0)"
    (Cli.exit_code Cli.Ok_exit)
    (srcc (repro ^ " --fix-dry-run"));
  check_int "--fix with a zero budget is unrepairable (5)"
    (Cli.exit_code (Cli.Compile_error ""))
    (srcc (repro ^ " --fix --fix-budget 0"));
  check_int "--fix-dry-run with a zero budget reports it too (5)"
    (Cli.exit_code (Cli.Compile_error ""))
    (srcc (repro ^ " --fix-dry-run --fix-budget 0"));
  check_int "--fix on a clean program is a no-op (0)" (Cli.exit_code Cli.Ok_exit)
    (srcc "../examples/kernels/loop_merge.simt --mode specrecon --fix")

(* ---- srcc's lint output: each finding once, on one stream ----

   --lint prints the findings machine-readably on stdout, and stderr
   carries only the outcome; --no-lint prints the same findings as
   warnings on stderr. *)

let check_string = Alcotest.(check string)

let srcc_output args =
  let out = Filename.temp_file "srcc" ".out" and err = Filename.temp_file "srcc" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/srcc.exe %s > %s 2> %s" args (Filename.quote out)
         (Filename.quote err))
  in
  let read path =
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        In_channel.with_open_bin path In_channel.input_all)
  in
  (code, read out, read err)

let test_srcc_lint_output () =
  let code, out, err = srcc_output (repro ^ " --lint") in
  check_int "--lint exits with findings (1)" (Cli.exit_code Cli.Findings) code;
  check_string "--lint: stderr holds only the outcome" "findings reported\n" err;
  let lines = String.split_on_char '\n' (String.trim out) in
  let findings = List.filter (String.starts_with ~prefix:"srlint: category=") lines in
  check_int "--lint: two findings" 2 (List.length findings);
  check_int "--lint: each finding once" 2 (List.length (List.sort_uniq compare findings));
  check_bool "--lint: stdout ends with the summary" true
    (List.nth lines (List.length lines - 1)
    = "srlint: 2 finding(s) in corpus/srfuzz_42_114_deadlock.simt");
  let code, _, err = srcc_output (repro ^ " --no-lint") in
  check_int "--no-lint compiles (0)" (Cli.exit_code Cli.Ok_exit) code;
  check_string "--no-lint: the findings as warnings on stderr"
    (String.concat "" (List.map (fun f -> "warning: " ^ f ^ "\n") findings))
    err

let tests =
  [
    ( "core.cli",
      [
        Alcotest.test_case "exit codes stable" `Quick test_exit_codes;
        Alcotest.test_case "classification per failure mode" `Quick
          test_classify_per_failure_mode;
        Alcotest.test_case "diagnostics are one line (except deadlock)" `Quick
          test_describe_one_line;
        Alcotest.test_case "handle" `Quick test_handle;
        Alcotest.test_case "srcc --fix exit-code contract" `Quick test_srcc_fix_exit_codes;
        Alcotest.test_case "srcc lint findings on one stream" `Quick test_srcc_lint_output;
      ] );
  ]
