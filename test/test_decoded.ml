(* Decode-time resolution (Ir.Decoded): every label, block and function
   reference must be resolved to an absolute index at decode time, and
   executing the decoded program must pick the right kernel under
   ?entry in multi-kernel translation units. (The legacy ADT-walking
   reference interpreter this file once compared against is gone; the
   decoded path is the only interpreter, and its semantics are pinned
   by the fuzz oracles and the race-logger differential instead.) *)

module T = Ir.Types
module B = Ir.Builder
module L = Ir.Linear
module D = Ir.Decoded

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string
let check_lclass msg want got = check_string msg (D.lclass_name want) (D.lclass_name got)
let small_config = { Simt.Config.default with Simt.Config.n_warps = 1 }

(* ---- branch targets ---- *)

let test_backward_branch () =
  (* entry: i=0 -> loop; loop: i+=1; br (i<10) loop, done; done: exit.
     The br's taken target is the loop head — a *backward* pc. *)
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let i = B.fresh_reg f and c = B.fresh_reg f in
  let loop = B.add_block f and done_ = B.add_block f in
  B.append f f.T.entry (T.Mov (i, T.Imm (T.I 0)));
  B.set_term f f.T.entry (T.Jump loop);
  B.append f loop (T.Bin (T.Add, i, T.Reg i, T.Imm (T.I 1)));
  B.append f loop (T.Bin (T.Lt, c, T.Reg i, T.Imm (T.I 10)));
  B.set_term f loop (T.Br { cond = T.Reg c; if_true = loop; if_false = done_ });
  B.set_term f done_ T.Exit;
  let l = L.linearize p in
  let d = D.decode l in
  let pc_loop = L.block_entry_pc l ~func:"k" ~block:loop in
  let found = ref false in
  Array.iteri
    (fun pc op ->
      if op = D.Br then begin
        found := true;
        check_int "br resolves to the loop head" pc_loop d.D.b.(pc);
        check_bool "target is backward" true (d.D.b.(pc) < pc);
        check_bool "cond is a register operand" false (D.enc_is_imm d.D.a.(pc));
        check_lclass "branch latency class" D.Lc_branch d.D.lclass.(pc)
      end)
    d.D.op;
  check_bool "decoded program contains a br" true !found

let test_forward_branch () =
  (* Diamond: RPO lays the else side before the then side, so the br's
     taken target is *forward*, past code that sits between. *)
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let c = B.fresh_reg f in
  let then_b = B.add_block f and else_b = B.add_block f and join = B.add_block f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = then_b; if_false = else_b });
  B.append f then_b (T.Mov (c, T.Imm (T.I 1)));
  B.set_term f then_b (T.Jump join);
  B.append f else_b (T.Mov (c, T.Imm (T.I 2)));
  B.set_term f else_b (T.Jump join);
  B.set_term f join T.Exit;
  let l = L.linearize p in
  let d = D.decode l in
  let pc_then = L.block_entry_pc l ~func:"k" ~block:then_b in
  let pc_join = L.block_entry_pc l ~func:"k" ~block:join in
  Array.iteri
    (fun pc op ->
      if op = D.Br then begin
        check_int "br resolves to the then block" pc_then d.D.b.(pc);
        check_bool "target is forward" true (d.D.b.(pc) > pc)
      end
      else if op = D.Jump then
        check_int "jumps land on the join" pc_join d.D.a.(pc))
    d.D.op;
  (* Decoding is a pure function of the linear program. *)
  let d2 = D.decode l in
  check_bool "decode is deterministic" true
    (d.D.op = d2.D.op && d.D.a = d2.D.a && d.D.b = d2.D.b && d.D.c = d2.D.c
    && d.D.vals = d2.D.vals)

(* ---- cross-kernel call resolution and ?entry ---- *)

let multi_kernel_program () =
  (* Two launchable kernels share one device function; decode must give
     each call site the same absolute callee entry pc, and running with
     ?entry must pick the right kernel without re-decoding. *)
  let p = B.create_program () in
  let base = B.alloc_global p "out" 4 in
  let g = B.create_func p "twice" ~params:1 in
  let r = B.fresh_reg g in
  B.append g g.T.entry (T.Bin (T.Add, r, T.Reg 0, T.Reg 0));
  B.set_term g g.T.entry (T.Ret (Some (T.Reg r)));
  let mk name arg =
    let f = B.create_func p name ~params:0 in
    let d = B.fresh_reg f in
    B.append f f.T.entry
      (T.Call { callee = "twice"; args = [ T.Imm (T.I arg) ]; ret = Some d });
    B.append f f.T.entry (T.Store (T.Imm (T.I base), T.Reg d));
    B.set_term f f.T.entry T.Exit
  in
  mk "main" 21;
  mk "alt" 4;
  B.set_kernel p "main";
  B.add_kernel p "alt";
  (p, base)

let test_cross_kernel_calls () =
  let p, _ = multi_kernel_program () in
  let l = L.linearize p in
  let d = D.decode l in
  let g_info = List.find (fun fi -> fi.L.fname = "twice") l.L.funcs in
  check_int "two call sites" 2 (Array.length d.D.calls);
  Array.iter
    (fun ci ->
      check_string "callee name kept for dumps" "twice" ci.D.ccallee;
      check_int "entry resolved across functions" g_info.L.entry_pc ci.D.centry;
      check_int "callee frame size" g_info.L.n_regs ci.D.cn_regs;
      check_int "one argument" 1 (Array.length ci.D.cargs);
      check_bool "argument is an immediate" true (D.enc_is_imm ci.D.cargs.(0));
      check_bool "return register present" true (ci.D.cret >= 0))
    d.D.calls

let test_entry_selection () =
  let p, base = multi_kernel_program () in
  let l = L.linearize p in
  let d = D.decode l in
  let run ?entry () =
    Simt.Interp.run ?entry small_config d ~args:[] ~init_memory:(fun _ -> ())
  in
  let out r = Simt.Valops.to_int (Simt.Memsys.read r.Simt.Interp.memory base) in
  let dflt = run () and alt = run ~entry:"alt" () in
  check_int "default entry computes twice(21)" 42 (out dflt);
  check_int "?entry computes twice(4)" 8 (out alt);
  (* Entry selection must not depend on decode order: both kernels run
     from one shared decode, and a uniform single-warp run is
     deterministic, so re-running is bit-stable. *)
  let alt2 = run ~entry:"alt" () in
  check_bool "?entry rerun metrics are stable" true
    (alt.Simt.Interp.metrics = alt2.Simt.Interp.metrics);
  check_int "?entry rerun memory is stable" (out alt) (out alt2);
  match run ~entry:"nope" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for unknown entry"

(* ---- barrier-slot operands ---- *)

let test_barrier_operands () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p in
  B.append f f.T.entry (T.Join b0);
  B.append f f.T.entry (T.Wait_threshold (b1, 3));
  B.append f f.T.entry (T.Cancel b0);
  B.append f f.T.entry (T.Wait b0);
  B.set_term f f.T.entry T.Exit;
  let dp = D.decode (L.linearize p) in
  let expect pc op a b =
    check_string (Printf.sprintf "pc %d opcode" pc) (D.opcode_name op)
      (D.opcode_name dp.D.op.(pc));
    check_int (Printf.sprintf "pc %d field a" pc) a dp.D.a.(pc);
    if b >= 0 then check_int (Printf.sprintf "pc %d field b" pc) b dp.D.b.(pc);
    check_lclass (Printf.sprintf "pc %d latency class" pc) D.Lc_barrier dp.D.lclass.(pc)
  in
  expect 0 D.Join b0 (-1);
  (* slot in [a], threshold in [b] — both plain ints, not encoded operands *)
  expect 1 D.Wait_threshold b1 3;
  expect 2 D.Cancel b0 (-1);
  expect 3 D.Wait b0 (-1)

(* ---- immediate pool ---- *)

let test_immediate_pool () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let x = B.fresh_reg f and y = B.fresh_reg f in
  B.append f f.T.entry (T.Mov (x, T.Imm (T.I 7)));
  B.append f f.T.entry (T.Bin (T.Fadd, y, T.Imm (T.F 1.5), T.Imm (T.F 2.5)));
  B.append f f.T.entry (T.Bin (T.Add, x, T.Reg x, T.Imm (T.I 7)));
  B.set_term f f.T.entry T.Exit;
  let d = D.decode (L.linearize p) in
  (* Appended in pc order; duplicates are NOT pooled — each Imm gets its
     own slot, keeping decode a single pass. *)
  check_bool "pool contents in pc order" true
    (d.D.vals = [| T.I 7; T.F 1.5; T.F 2.5; T.I 7 |]);
  check_bool "mov src is an immediate" true (D.enc_is_imm d.D.b.(0));
  check_int "mov src pool slot" 0 (D.enc_index d.D.b.(0));
  check_lclass "fadd latency class" D.Lc_float d.D.lclass.(1);
  check_bool "reg operand tagged as register" false (D.enc_is_imm d.D.b.(2));
  check_int "reg operand index" x (D.enc_index d.D.b.(2))

(* ---- listing dump (what `srcc --dump decoded` prints) ---- *)

let test_pp_listing () =
  let source =
    "global out: int[32];\n\n\
     kernel k() {\n\
    \  var t: int = tid();\n\
    \  if (t < 2) {\n\
    \    out[t] = t + 10;\n\
    \  } else {\n\
    \    out[t] = t * 3;\n\
    \  }\n\
     }\n"
  in
  let compiled = Core.Compile.compile Core.Compile.baseline ~source in
  let got = Format.asprintf "%a" D.pp compiled.Core.Compile.decoded in
  let expected =
    "decoded: 14 slots, 5 imms, 0 calls\n\
     ; --- k ---\n\
    \   0 [bb0] tid      r0  ; alu\n\
    \   1 [bb0] mov      r1 <- r0  ; alu\n\
    \   2 [bb0] bin     .lt r2 <- r1 imm[0]=2  ; alu\n\
    \   3 [bb0] join     b0  ; barrier\n\
    \   4 [bb0] br       r2 ->9  ; branch\n\
    \   5 [bb2] bin     .add r5 <- imm[1]=0 r1  ; alu\n\
    \   6 [bb2] bin     .mul r6 <- r1 imm[2]=3  ; alu\n\
    \   7 [bb2] store    r5 r6  ; mem\n\
    \   8 [bb2] jump     ->12  ; branch\n\
    \   9 [bb1] bin     .add r3 <- imm[3]=0 r1  ; alu\n\
    \  10 [bb1] bin     .add r4 <- r1 imm[4]=10  ; alu\n\
    \  11 [bb1] store    r3 r4  ; mem\n\
    \  12 [bb3] wait     b0  ; barrier\n\
    \  13 [bb3] exit      ; branch\n"
  in
  check_string "decoded listing" expected got

let tests =
  [
    ( "ir.decoded",
      [
        Alcotest.test_case "backward branch target" `Quick test_backward_branch;
        Alcotest.test_case "forward branch target" `Quick test_forward_branch;
        Alcotest.test_case "cross-kernel call entries" `Quick test_cross_kernel_calls;
        Alcotest.test_case "multi-kernel ?entry" `Quick test_entry_selection;
        Alcotest.test_case "barrier-slot operands" `Quick test_barrier_operands;
        Alcotest.test_case "immediate pool" `Quick test_immediate_pool;
        Alcotest.test_case "listing dump" `Quick test_pp_listing;
      ] );
  ]
