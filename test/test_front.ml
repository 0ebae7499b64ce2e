(* Tests for the MiniSIMT front end: lexer, parser, lowering (type
   checking + control-flow expansion), and thread coarsening. *)

module A = Front.Ast
module P = Front.Parser
module Low = Front.Lower

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let parses src = ignore (P.parse_string src)

let parse_fails src =
  match P.parse_string src with
  | exception P.Parse_error _ -> ()
  | exception Front.Lexer.Lex_error _ -> ()
  | _ -> Alcotest.failf "expected parse failure for: %s" src

let lowers src = ignore (Low.compile_source src)

let lower_fails ?expect src =
  match Low.compile_source src with
  | exception Low.Lower_error (_, msg) -> (
    match expect with
    | None -> ()
    | Some fragment ->
      let has sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      if not (has fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment)
  | _ -> Alcotest.failf "expected lowering failure for: %s" src

(* ---- lexer ---- *)

let test_lexer_basics () =
  parses "kernel k() { }";
  parses "kernel k() { // comment\n }";
  parses "kernel k() { /* multi\n line */ }";
  parses "kernel k() { var x: float = 1.5e3; x = 2.0e-2; x = 3.; }";
  parse_fails "kernel k() { var x: int = @; }";
  parse_fails "kernel k() { /* unterminated"

(* ---- parser ---- *)

let test_parser_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3): check through evaluation later;
     here just verify the AST nests multiplication deeper. *)
  let prog = P.parse_string "kernel k() { let x = 1 + 2 * 3; }" in
  match prog.A.funcs with
  | [ { A.body = [ { A.sdesc = A.Decl { init; _ }; _ } ]; _ } ] -> (
    match init.A.desc with
    | A.Binary (A.Badd, { A.desc = A.Int_lit 1; _ }, { A.desc = A.Binary (A.Bmul, _, _); _ }) ->
      ()
    | _ -> Alcotest.fail "wrong precedence shape")
  | _ -> Alcotest.fail "unexpected program shape"

let test_parser_statements () =
  parses
    {|
global g: float[16];
func f(a: int, b: float) -> float { return b; }
kernel k(n: int) {
  var x: int = 0;
  let y = 2.0;
  if (x < n) { x = n; } else if (x == 0) { x = 1; } else { x = 2; }
  while (x > 0) { x = x - 1; if (x == 3) { break; } continue; }
  for i in 0 .. n { g[i] = y; }
  L1:
  predict L1;
  predict L1 threshold 4;
  predict func f;
  let z = f(x, y) + g[0];
  g[1] = z;
  return;
}
|};
  parse_fails "kernel k() { if x { } }" (* missing parens *);
  parse_fails "kernel k() { for i in 0 { } }" (* missing .. *);
  parse_fails "global g: float[]; kernel k() { }";
  parse_fails "kernel k() { predict; }"

let test_parser_label_vs_assign () =
  (* IDENT ':' is a label, IDENT '=' an assignment, IDENT '[' an indexed
     store or expression statement. *)
  let prog =
    P.parse_string
      {|
global a: int[4];
kernel k() {
  var x: int = 0;
  lbl:
  x = 1;
  a[0] = 2;
  a[x];
}
|}
  in
  match prog.A.funcs with
  | [ { A.body; _ } ] ->
    let kinds =
      List.map
        (fun s ->
          match s.A.sdesc with
          | A.Decl _ -> "decl"
          | A.Label _ -> "label"
          | A.Assign _ -> "assign"
          | A.Index_assign _ -> "index-assign"
          | A.Expr_stmt _ -> "expr"
          | _ -> "other")
        body
    in
    check (Alcotest.list Alcotest.string) "statement kinds"
      [ "decl"; "label"; "assign"; "index-assign"; "expr" ]
      kinds
  | _ -> Alcotest.fail "unexpected shape"

(* ---- lowering ---- *)

let test_lower_accepts () =
  lowers "kernel k() { }";
  lowers "global s: int; kernel k() { s = 1; let x = s + 1; }";
  lowers "kernel k() { let b = 1 < 2 && 3 < 4 || !(5 < 6); }";
  lowers "func f() { } kernel k() { f(); }";
  lowers "kernel k() { var x: float = float(tid()); let i = int(x); }";
  (* shadowing in an inner scope is fine *)
  lowers "kernel k() { let x = 1; if (x == 1) { let x = 2.0; let y = x; } }"

let test_lower_type_errors () =
  lower_fails ~expect:"type mismatch" "kernel k() { let x = 1 + 2.0; }";
  lower_fails ~expect:"integer" "kernel k() { if (1.0) { } }";
  lower_fails ~expect:"integer" "kernel k() { while (0.5) { } }";
  lower_fails ~expect:"index" "global a: int[4]; kernel k() { let x = a[1.0]; }";
  lower_fails ~expect:"'%'" "kernel k() { let x = 1.0 % 2.0; }";
  lower_fails ~expect:"'!'" "kernel k() { let x = !1.5; }";
  lower_fails ~expect:"logical" "kernel k() { let x = 1.0 && 1; }";
  lower_fails ~expect:"declared" "kernel k() { var x: int = 1.0; }";
  lower_fails ~expect:"assigning" "kernel k() { var x: int = 1; x = 2.0; }"

let test_lower_name_errors () =
  lower_fails ~expect:"unknown variable" "kernel k() { let x = nope; }";
  lower_fails ~expect:"unknown function" "kernel k() { nope(); }";
  lower_fails ~expect:"unknown array" "kernel k() { nope[0] = 1; }";
  lower_fails ~expect:"immutable" "kernel k() { let x = 1; x = 2; }";
  lower_fails ~expect:"redeclaration" "kernel k() { let x = 1; let x = 2; }";
  lower_fails ~expect:"array" "global a: int[4]; kernel k() { a = 1; }";
  lower_fails ~expect:"scalar" "global s: int; kernel k() { s[0] = 1; }";
  lower_fails ~expect:"duplicate label" "kernel k() { L: L: }";
  lower_fails ~expect:"shadows" "func tid() { } kernel k() { }"

let test_lower_structure_errors () =
  lower_fails ~expect:"break" "kernel k() { break; }";
  lower_fails ~expect:"continue" "kernel k() { continue; }";
  lower_fails ~expect:"kernels cannot return" "kernel k() { return 1; }";
  lower_fails ~expect:"no kernel" "func f() { }";
  (* multiple kernels are legal: the first declared is the entry, the
     rest stay launchable by name *)
  (let p = Low.compile_source "kernel a() { } kernel b() { }" in
   Alcotest.(check string) "first kernel is the entry" "a" p.Ir.Types.kernel;
   Alcotest.(check (list string)) "all kernels launchable" [ "a"; "b" ] p.Ir.Types.kernels);
  lower_fails ~expect:"expects 1 argument" "func f(x: int) { } kernel k() { f(); }";
  lower_fails ~expect:"argument" "func f(x: int) { } kernel k() { f(1.0); }";
  lower_fails ~expect:"no value" "func f() { } kernel k() { let x = f(); }";
  lower_fails ~expect:"return a value" "func f() -> int { return; } kernel k() { f(); }"

let test_lower_dead_code () =
  (* Statements after break/continue/return are dropped, not crashed on. *)
  lowers "kernel k() { while (1 < 2) { break; let dead = 1; } }";
  lowers "kernel k() { return; let dead = 1; }"

let test_lower_verified () =
  (* Every successfully lowered program must pass the verifier (lower
     calls it; double-check on a structurally rich program). *)
  let p =
    Low.compile_source
      {|
global out: float[64];
func helper(x: float) -> float { return x * 2.0; }
kernel k(n: int) {
  var acc: float = 0.0;
  for i in 0 .. n {
    if (randint(2) == 0 && i < 8) {
      acc = acc + helper(acc);
    } else {
      acc = acc - 0.5;
    }
  }
  out[tid()] = acc;
}
|}
  in
  check_int "no verifier errors" 0 (List.length (Ir.Verifier.check_program p))

(* ---- every IR operator has a MiniSIMT spelling ---- *)

(* The matches below have no wildcard, so an operator or instruction
   added to Ir.Types does not compile here until it names the source
   that produces it, and the test then checks that the source does. *)
let binop_spelling : Ir.Types.binop -> string = function
  | Add -> "i + i"
  | Sub -> "i - i"
  | Mul -> "i * i"
  | Div -> "i / i"
  | Rem -> "i % i"
  | Min -> "min(i, i)"
  | Max -> "max(i, i)"
  | Fadd -> "r + r"
  | Fsub -> "r - r"
  | Fmul -> "r * r"
  | Fdiv -> "r / r"
  | Fmin -> "fmin(r, r)"
  | Fmax -> "fmax(r, r)"
  | Eq -> "i == i"
  | Ne -> "i != i"
  | Lt -> "i < i"
  | Le -> "i <= i"
  | Gt -> "i > i"
  | Ge -> "i >= i"
  | Feq -> "r == r"
  | Fne -> "r != r"
  | Flt -> "r < r"
  | Fle -> "r <= r"
  | Fgt -> "r > r"
  | Fge -> "r >= r"

let unop_spelling : Ir.Types.unop -> string = function
  | Neg -> "-i"
  | Not -> "!i"
  | Fneg -> "-r"
  | Itof -> "float(i)"
  | Ftoi -> "int(r)"
  | Sqrt -> "sqrt(r)"
  | Exp -> "exp(r)"
  | Log -> "log(r)"
  | Sin -> "sin(r)"
  | Cos -> "cos(r)"
  | Fabs -> "fabs(r)"

(* An instruction comes from a statement's lowering, or from the
   synchronization passes: those [Specrecon] finds in a speculative
   compile of the soft-barrier example. *)
type origin = Lowering of string | Specrecon

let inst_origin : Ir.Types.inst -> string * origin = function
  | Bin _ -> ("bin", Lowering "let x = i + i;")
  | Un _ -> ("un", Lowering "let x = -i;")
  | Mov _ -> ("mov", Lowering "var x: int = i;")
  | Load _ -> ("load", Lowering "let x = g[i];")
  | Store _ -> ("store", Lowering "g[i] = i;")
  | Tid _ -> ("tid", Lowering "let x = tid();")
  | Lane _ -> ("lane", Lowering "let x = lane();")
  | Nthreads _ -> ("nthreads", Lowering "let x = nthreads();")
  | Rand _ -> ("rand", Lowering "let x = rand();")
  | Randint _ -> ("randint", Lowering "let x = randint(4);")
  | Call _ -> ("call", Lowering "h();")
  | Join _ -> ("join", Specrecon)
  | Rejoin _ -> ("rejoin", Specrecon)
  | Wait _ -> ("wait", Specrecon)
  | Wait_threshold _ -> ("wait.th", Specrecon)
  | Cancel _ -> ("cancel", Specrecon)

let test_every_operator_spelled () =
  let open Ir.Types in
  let lowered body =
    Low.compile_source
      (Printf.sprintf
         "global g: int[8];
          func h() { }
          kernel k(i: int, r: float) {
         \  %s
          }
"
         body)
  in
  let insts p =
    List.concat_map
      (fun n ->
        let f = Hashtbl.find p.funcs n in
        List.concat_map (fun id -> (block f id).insts) (block_ids f))
      (func_names p)
  in
  check_int "the frame alone lowers to no instruction" 0 (List.length (insts (lowered "")));
  let has what p pred =
    check_bool (what ^ " is in its lowering") true (List.exists pred (insts p))
  in
  List.iter
    (fun op ->
      let src = binop_spelling op in
      has src (lowered ("let x = " ^ src ^ ";")) (function
        | Bin (o, _, _, _) -> o = op
        | _ -> false))
    [
      Add; Sub; Mul; Div; Rem; Min; Max; Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Eq; Ne; Lt; Le;
      Gt; Ge; Feq; Fne; Flt; Fle; Fgt; Fge;
    ];
  List.iter
    (fun op ->
      let src = unop_spelling op in
      has src (lowered ("let x = " ^ src ^ ";")) (function
        | Un (o, _, _) -> o = op
        | _ -> false))
    [ Neg; Not; Fneg; Itof; Ftoi; Sqrt; Exp; Log; Sin; Cos; Fabs ];
  let specrecon =
    (Core.Compile.compile Core.Compile.speculative
       ~source:
         (In_channel.with_open_bin "../examples/kernels/soft_barrier.simt"
            In_channel.input_all))
      .Core.Compile.program
  in
  let imm = Imm (I 0) in
  List.iter
    (fun sample ->
      let name, origin = inst_origin sample in
      let p, where =
        match origin with
        | Lowering src -> (lowered src, src)
        | Specrecon -> (specrecon, "soft_barrier.simt under specrecon")
      in
      has (name ^ " from " ^ where) p (fun i -> fst (inst_origin i) = name))
    [
      Bin (Add, 0, imm, imm); Un (Neg, 0, imm); Mov (0, imm); Load (0, imm); Store (imm, imm);
      Tid 0; Lane 0; Nthreads 0; Rand 0; Randint (0, imm);
      Call { callee = "h"; args = []; ret = None }; Join 0; Rejoin 0; Wait 0;
      Wait_threshold (0, 1); Cancel 0;
    ]

(* ---- semantics through the simulator ---- *)

let run_kernel ?(warps = 1) src args =
  let compiled = Core.Compile.compile Core.Compile.baseline ~source:src in
  let config = { Simt.Config.default with Simt.Config.n_warps = warps } in
  Simt.Interp.run config compiled.Core.Compile.decoded ~args ~init_memory:(fun _ -> ())

let read_out (compiled_src : string) (result : Simt.Interp.result) n =
  ignore compiled_src;
  Array.to_list (Simt.Memsys.dump result.Simt.Interp.memory ~base:0 ~len:n)

let test_semantics_arith () =
  let src =
    {|
global out: int[32];
kernel k() {
  let a = 7 + 3 * 4 - 1;      // 18
  let b = (7 + 3) * 4 % 7;    // 40 % 7 = 5
  let c = max(min(a, b), 2);  // 5
  let d = 10 / 3;             // 3
  out[tid()] = a * 1000 + b * 100 + c * 10 + d;
}
|}
  in
  let r = run_kernel src [] in
  match read_out src r 1 with
  | [ Ir.Types.I v ] -> check_int "arith result" 18553 v
  | _ -> Alcotest.fail "expected int output"

let test_semantics_short_circuit () =
  (* The right-hand side must not execute when short-circuited: a
     division by zero on the rhs would otherwise trap. *)
  let src =
    {|
global out: int[32];
kernel k() {
  let zero = 0;
  var x: int = 0;
  if (zero != 0 && 1 / zero > 0) { x = 1; }
  if (zero == 0 || 1 / zero > 0) { x = x + 2; }
  out[tid()] = x;
}
|}
  in
  let r = run_kernel src [] in
  match read_out src r 1 with
  | [ Ir.Types.I 2 ] -> ()
  | _ -> Alcotest.fail "short-circuit evaluated the wrong branch"

let test_semantics_loops () =
  let src =
    {|
global out: int[32];
kernel k() {
  var sum: int = 0;
  for i in 0 .. 10 { sum = sum + i; }            // 45
  var j: int = 0;
  while (j < 5) { j = j + 1; if (j == 3) { continue; } sum = sum + 100; } // +400
  for i in 0 .. 10 { if (i == 2) { break; } sum = sum + 1000; }           // +2000
  out[tid()] = sum;
}
|}
  in
  let r = run_kernel src [] in
  match read_out src r 1 with
  | [ Ir.Types.I v ] -> check_int "loop result" 2445 v
  | _ -> Alcotest.fail "expected int output"

let test_semantics_for_bound_frozen () =
  (* The upper bound of a for loop is evaluated once. *)
  let src =
    {|
global out: int[32];
kernel k() {
  var n: int = 3;
  var count: int = 0;
  for i in 0 .. n { n = 100; count = count + 1; }
  out[tid()] = count;
}
|}
  in
  let r = run_kernel src [] in
  match read_out src r 1 with
  | [ Ir.Types.I 3 ] -> ()
  | _ -> Alcotest.fail "for bound should be evaluated once"

let test_semantics_functions () =
  let src =
    {|
global out: int[32];
func fact(n: int) -> int {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
kernel k() { out[tid()] = fact(5); }
|}
  in
  let r = run_kernel src [] in
  match read_out src r 1 with
  | [ Ir.Types.I 120 ] -> ()
  | _ -> Alcotest.fail "recursive factorial failed"

(* ---- coarsening ---- *)

let test_coarsen_semantics () =
  (* A coarsened kernel over N threads must write the same cells as the
     original over N*factor threads (deterministic kernel: no rand). *)
  let src =
    {|
global out: int[256];
kernel k() {
  let work = tid() * 3 + nthreads();
  out[tid()] = work;
}
|}
  in
  let factor = 4 in
  let original =
    let c = Core.Compile.compile Core.Compile.baseline ~source:src in
    let config = { Simt.Config.default with Simt.Config.n_warps = factor } in
    Simt.Interp.run config c.Core.Compile.decoded ~args:[] ~init_memory:(fun _ -> ())
  in
  let coarsened =
    let options = { Core.Compile.baseline with Core.Compile.coarsen = Some factor } in
    let c = Core.Compile.compile options ~source:src in
    let config = { Simt.Config.default with Simt.Config.n_warps = 1 } in
    Simt.Interp.run config c.Core.Compile.decoded ~args:[] ~init_memory:(fun _ -> ())
  in
  let dump (r : Simt.Interp.result) = Simt.Memsys.dump r.Simt.Interp.memory ~base:0 ~len:128 in
  check_bool "coarsened result matches wide launch" true (dump original = dump coarsened)

let test_coarsen_hoists_predict () =
  let src =
    {|
global out: float[256];
kernel k() {
  predict L1;
  var x: float = 0.0;
  while (x < float(randint(8))) {
    L1:
    x = x + 1.0;
  }
  out[tid()] = x;
}
|}
  in
  let ast = Front.Coarsen.apply (P.parse_string src) ~factor:2 in
  match ast.A.funcs with
  | [ { A.body = first :: _; _ } ] -> (
    match first.A.sdesc with
    | A.Predict _ -> ()
    | _ -> Alcotest.fail "predict was not hoisted above the task loop")
  | _ -> Alcotest.fail "unexpected shape"

let test_coarsen_errors () =
  let reject src =
    match Front.Coarsen.apply (P.parse_string src) ~factor:2 with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "expected coarsening to fail: %s" src
  in
  reject "func f() -> int { return tid(); } kernel k() { let x = f(); }";
  reject "func f() { }";
  (match Front.Coarsen.apply (P.parse_string "kernel k() { }") ~factor:0 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "factor 0 accepted")

let tests =
  [
    ("front.lexer", [ Alcotest.test_case "basics" `Quick test_lexer_basics ]);
    ( "front.parser",
      [
        Alcotest.test_case "precedence" `Quick test_parser_precedence;
        Alcotest.test_case "statements" `Quick test_parser_statements;
        Alcotest.test_case "label vs assign" `Quick test_parser_label_vs_assign;
      ] );
    ( "front.lower",
      [
        Alcotest.test_case "accepts valid" `Quick test_lower_accepts;
        Alcotest.test_case "type errors" `Quick test_lower_type_errors;
        Alcotest.test_case "name errors" `Quick test_lower_name_errors;
        Alcotest.test_case "structure errors" `Quick test_lower_structure_errors;
        Alcotest.test_case "dead code dropped" `Quick test_lower_dead_code;
        Alcotest.test_case "verified output" `Quick test_lower_verified;
        Alcotest.test_case "every IR operator has a spelling" `Quick
          test_every_operator_spelled;
      ] );
    ( "front.semantics",
      [
        Alcotest.test_case "arithmetic" `Quick test_semantics_arith;
        Alcotest.test_case "short-circuit" `Quick test_semantics_short_circuit;
        Alcotest.test_case "loops" `Quick test_semantics_loops;
        Alcotest.test_case "for bound frozen" `Quick test_semantics_for_bound_frozen;
        Alcotest.test_case "recursive function" `Quick test_semantics_functions;
      ] );
    ( "front.coarsen",
      [
        Alcotest.test_case "semantics preserved" `Quick test_coarsen_semantics;
        Alcotest.test_case "predict hoisted" `Quick test_coarsen_hoists_predict;
        Alcotest.test_case "errors" `Quick test_coarsen_errors;
      ] );
  ]
