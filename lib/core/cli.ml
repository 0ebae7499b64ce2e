type outcome =
  | Ok_exit
  | Findings
  | Usage of string
  | Io_error of string
  | Syntax_error of string
  | Compile_error of string
  | Deadlock of string
  | Runtime_failure of string
  | Baseline_mismatch of string
  | Deadline_exceeded of string

exception Error of outcome

let exit_code = function
  | Ok_exit -> 0
  | Findings -> 1
  | Usage _ -> 2
  | Io_error _ -> 3
  | Syntax_error _ -> 4
  | Compile_error _ -> 5
  | Deadlock _ -> 6
  | Runtime_failure _ -> 7
  | Baseline_mismatch _ -> 8
  | Deadline_exceeded _ -> 9

(* One line, except deadlock: its waits-for-cycle report is the whole
   point of the diagnostic, so it keeps its lines. *)
let describe = function
  | Ok_exit -> "ok"
  | Findings -> "findings reported"
  | Usage msg -> "usage error: " ^ msg
  | Io_error msg -> "i/o error: " ^ msg
  | Syntax_error msg -> "syntax error: " ^ msg
  | Compile_error msg -> "compile error: " ^ msg
  | Deadlock msg -> "deadlock: " ^ msg
  | Runtime_failure msg -> "runtime error: " ^ msg
  | Baseline_mismatch msg -> "baseline mismatch: " ^ msg
  | Deadline_exceeded msg -> "deadline exceeded: " ^ msg

let one_line msg =
  match String.index_opt msg '\n' with
  | None -> msg
  | Some i -> String.sub msg 0 i ^ " [...]"

let classify = function
  | Error o -> Some o
  | Sys_error msg -> Some (Io_error msg)
  | Front.Lexer.Lex_error (pos, msg) ->
    Some (Syntax_error (Format.asprintf "%a: %s" Front.Ast.pp_pos pos msg))
  | Front.Parser.Parse_error (pos, msg) ->
    Some (Syntax_error (Format.asprintf "%a: %s" Front.Ast.pp_pos pos msg))
  | Front.Lower.Lower_error (pos, msg) ->
    Some (Compile_error (Format.asprintf "%a: %s" Front.Ast.pp_pos pos msg))
  | Failure msg -> Some (Compile_error (one_line msg))
  | Invalid_argument msg -> Some (Usage msg)
  | Simt.Interp.Deadlock msg -> Some (Deadlock msg)
  | Simt.Interp.Runtime_error msg -> Some (Runtime_failure msg)
  | Simt.Interp.Out_of_budget (Simt.Interp.Issue_cap, msg) ->
    Some (Runtime_failure ("runaway: " ^ msg))
  | Simt.Interp.Out_of_budget (Simt.Interp.Fuel, msg) -> Some (Deadline_exceeded msg)
  | _ -> None

let handle f =
  try f () with
  | e -> (
    match classify e with
    | Some o ->
      prerr_endline (describe o);
      exit_code o
    | None -> raise e)
