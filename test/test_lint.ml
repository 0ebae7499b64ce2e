(* srlint (Analysis.Barrier_safety) regression gates:

   - expect-tests: hand-built IR triggering each finding category must
     render byte-for-byte stable machine diagnostics (category, function,
     block, source line from provenance, slot, fix hint);
   - ablation: with Deconflict's call-as-wait modeling disabled (the
     pre-PR 2 blindness), srlint statically flags the interprocedural
     deadlock shape the fuzzer once had to find dynamically — and the
     simulator confirms the flag;
   - clean sweep: every example kernel and every corpus repro compiles
     with zero findings in every mode (the checker is a mandatory
     Core.Compile stage, so examples/workloads depend on this);
   - generator reach: the fuzzer emits threshold-gated label and func
     hints, so campaigns exercise the checker on soft barriers. *)

module T = Ir.Types
module B = Ir.Builder
module BS = Analysis.Barrier_safety
module C = Core.Compile

let render = BS.render

let check_render name program ~speculative expected =
  Alcotest.(check string) name expected (render (BS.check ~speculative program))

(* ---- expect-tests: one crafted program per category ---- *)

(* Three barriers in rock-paper-scissors: each divergent arm cancels one
   slot and waits on another while still holding the third, so the
   waits-for relation is the 3-cycle b1->b0, b2->b1, b0->b2 with no
   mutual pair (hence no overlap finding, only the cycle). *)
let test_bypassable_wait () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p and b2 = B.fresh_barrier p in
  let arm1 = B.add_block f and arm2 = B.add_block f and arm3 = B.add_block f in
  let mid = B.add_block f in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b1; T.Join b2 ];
  let c = B.fresh_reg f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = arm1; if_false = mid });
  B.set_term f mid (T.Br { cond = T.Reg c; if_true = arm2; if_false = arm3 });
  List.iter (B.append f arm1) [ T.Cancel b2; T.Wait b0 ];
  List.iter (B.append f arm2) [ T.Cancel b0; T.Wait b1 ];
  List.iter (B.append f arm3) [ T.Cancel b1; T.Wait b2 ];
  check_render "3-cycle is one bypassable-wait finding" p ~speculative:[]
    "srlint: category=bypassable-wait func=k block=bb3 line=? slot=b0 msg=wait can be \
     bypassed: slots {b0, b1, b2} form a waits-for cycle (each may block a holder of the \
     next), so no schedule can fire them fix=break the cycle: cancel or deconflict one of \
     the slots before its conflicting wait hint=insert-cancel"

(* Two barriers held across complementary waits in divergent arms: the
   2-cycle is also the exact partial-overlap shape Deconflict must
   separate, so both detectors report it. *)
let test_unseparated_overlap () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p in
  let arm1 = B.add_block f and arm2 = B.add_block f in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b1 ];
  let c = B.fresh_reg f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = arm1; if_false = arm2 });
  List.iter (B.append f arm1) [ T.Wait b0; T.Cancel b1 ];
  List.iter (B.append f arm2) [ T.Wait b1; T.Cancel b0 ];
  check_render "mutual partial overlap reports cycle and overlap" p ~speculative:[]
    "srlint: category=bypassable-wait func=k block=bb2 line=? slot=b0 msg=wait can be \
     bypassed: slots {b0, b1} form a waits-for cycle (each may block a holder of the next), \
     so no schedule can fire them fix=break the cycle: cancel or deconflict one of the \
     slots before its conflicting wait hint=insert-cancel\n\
     srlint: category=unseparated-overlap func=k block=bb2 line=? slot=b0 msg=slots b0 and \
     b1 overlap partially and can each block a holder of the other; Deconflict should have \
     separated them fix=re-run deconfliction on this pair, or cancel the held slot before \
     the wait hint=split-slot"

let test_double_arrive () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b0; T.Wait b0 ];
  check_render "join twice on a live slot" p ~speculative:[]
    "srlint: category=double-arrive func=k block=bb0 line=? slot=b0 msg=arrive-after-arrive: \
     every path to this join already holds b0 fix=remove the redundant join, or use \
     rejoin.barrier after the wait hint=split-slot"

let test_unallocated_slot () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Wait b0; T.Cancel 3 ];
  check_render "slot id beyond next_barrier" p ~speculative:[]
    "srlint: category=unallocated-slot func=k block=bb0 line=? slot=b3 msg=slot b3 is \
     outside the allocated range [0, 1) fix=allocate the slot with Builder.fresh_barrier \
     before referencing it hint=remap-slot"

let test_orphan_wait () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  B.append f f.T.entry (T.Wait b0);
  check_render "wait with no arrive site anywhere" p ~speculative:[]
    "srlint: category=unallocated-slot func=k block=bb0 line=? slot=b0 msg=wait/cancel on \
     b0, but no join/rejoin arrives on it anywhere fix=insert join.barrier on every \
     participating path, or delete the orphan primitive hint=remap-slot"

(* Summaries through recursion: [a] joins b0 and returns holding it, and
   reaches its mutual partner [b] only in its recursive arm. [b] is
   swept before [a] (bottom-up order breaks the cycle there), so b0
   escapes [b] only on the second sweep. The kernel then holds b0 and b1
   after [call b], and its arms wait on them in opposite orders: the
   waits-for 2-cycle exists only under the second sweep's summaries. *)
let test_escape_through_recursion () =
  let p = B.create_program () in
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p in
  let a = B.create_func p "a" ~params:1 in
  let n = List.hd a.T.params in
  let recur = B.add_block a and done_ = B.add_block a in
  B.append a a.T.entry (T.Join b0);
  B.set_term a a.T.entry (T.Br { cond = T.Reg n; if_true = recur; if_false = done_ });
  B.append a recur (T.Call { callee = "b"; args = [ T.Reg n ]; ret = None });
  B.set_term a recur (T.Jump done_);
  B.set_term a done_ (T.Ret None);
  let b = B.create_func p "b" ~params:1 in
  let m = B.fresh_reg b in
  B.append b b.T.entry (T.Bin (T.Sub, m, T.Reg (List.hd b.T.params), T.Imm (T.I 1)));
  B.append b b.T.entry (T.Call { callee = "a"; args = [ T.Reg m ]; ret = None });
  B.set_term b b.T.entry (T.Ret None);
  let k = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let arm1 = B.add_block k and arm2 = B.add_block k in
  let c = B.fresh_reg k in
  List.iter (B.append k k.T.entry)
    [ T.Join b1; T.Call { callee = "b"; args = [ T.Imm (T.I 2) ]; ret = None }; T.Tid c ];
  B.set_term k k.T.entry (T.Br { cond = T.Reg c; if_true = arm1; if_false = arm2 });
  List.iter (B.append k arm1) [ T.Wait b0; T.Wait b1 ];
  List.iter (B.append k arm2) [ T.Wait b1; T.Wait b0 ];
  check_render "a slot escaping a call cycle closes a waits-for cycle" p ~speculative:[]
    "srlint: category=bypassable-wait func=k block=bb2 line=? slot=b0 msg=wait can be \
     bypassed: slots {b0, b1} form a waits-for cycle (each may block a holder of the next), \
     so no schedule can fire them fix=break the cycle: cancel or deconflict one of the \
     slots before its conflicting wait hint=insert-cancel"

(* Join in one arm only, wait at the merge: a speculative placement whose
   BSSY does not dominate its BSYNC, the paper's rule 5. *)
let test_undominated_wait () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  let arm = B.add_block f and skip = B.add_block f and merge = B.add_block f in
  let c = B.fresh_reg f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = arm; if_false = skip });
  B.append f arm (T.Join b0);
  B.set_term f arm (T.Jump merge);
  B.set_term f skip (T.Jump merge);
  B.append f merge (T.Wait b0);
  check_render "wait not dominated by its join block" p
    ~speculative:[ { BS.sfunc = "k"; slot = b0; join_block = arm } ]
    "srlint: category=undominated-wait func=k block=bb3 line=? slot=b0 msg=speculative wait \
     on b0 at bb3 is not dominated by its join block bb1: some participant can reach the \
     wait region without arriving fix=move the predict hint so the join dominates the \
     wait, or drop the hint hint=hoist-wait"

(* Predicate-aware reachability: a wait reachable only through a branch
   whose condition the block itself pins to a constant must not feed
   the waits-for relation. The live path here is benign — everyone
   joins both slots and waits them in one order — while the dead arm
   waits b0 first, which (if believed reachable) completes the mutual
   {b0, b1} cycle. Before the refinement this exact program was
   flagged bypassable-wait; the pin is that it stays clean, and that
   the same shape with an opaque condition is still flagged. *)
let constant_guard_program cond_of =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p in
  let dead = B.add_block f and live = B.add_block f in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b1 ];
  let cond = cond_of f in
  B.set_term f f.T.entry (T.Br { cond; if_true = dead; if_false = live });
  (* Dead arm: waits b0 while holding b1 — the edge that would close
     the cycle against the live arm's wait on b1. *)
  B.append f dead (T.Wait b0);
  B.set_term f dead (T.Jump live);
  List.iter (B.append f live) [ T.Wait b1; T.Wait b0 ];
  p

let test_constant_branch_pruned () =
  (* Immediate-false condition: the arm is statically untakeable. *)
  check_render "immediate-false guard leaves no findings"
    (constant_guard_program (fun _ -> T.Imm (T.I 0)))
    ~speculative:[] "";
  (* A register the block itself folds to 0 is just as dead. *)
  let folded (f : T.func) =
    let a = B.fresh_reg f and c = B.fresh_reg f in
    B.append f f.T.entry (T.Mov (a, T.Imm (T.I 3)));
    B.append f f.T.entry (T.Bin (T.Lt, c, T.Reg a, T.Imm (T.I 2)));
    T.Reg c
  in
  check_render "block-locally folded guard leaves no findings"
    (constant_guard_program folded) ~speculative:[] "";
  (* Control: with an opaque condition the cycle is real and reported. *)
  let opaque (f : T.func) =
    let c = B.fresh_reg f in
    B.append f f.T.entry (T.Tid c);
    T.Reg c
  in
  let findings = BS.check (constant_guard_program opaque) in
  Alcotest.(check bool) "opaque guard still reports the cycle" true
    (List.exists (fun (fd : BS.finding) -> fd.BS.category = BS.Bypassable_wait) findings)

(* Source-line provenance: lower a real kernel so blocks carry src_line,
   then inject a bad primitive and check the line shows up. *)
let test_provenance_line () =
  let src = "kernel k() {\n  var x: int = 1;\n  outi[0] = x;\n}\n" in
  let src = "global outi: int[4];\n" ^ src in
  let p = Front.Lower.compile_source src in
  let f = Hashtbl.find p.T.funcs "k" in
  B.append f f.T.entry (T.Wait 0);
  check_render "diagnostic carries the source line of the block" p ~speculative:[]
    "srlint: category=unallocated-slot func=k block=bb0 line=3 slot=b0 msg=slot b0 is \
     outside the allocated range [0, 0) fix=allocate the slot with Builder.fresh_barrier \
     before referencing it hint=remap-slot"

(* ---- ablation: srlint flags the PR 2 interprocedural deadlock ---- *)

(* The §3 common-call conflict as srfuzz minimized it (same shape as
   test_fuzz.conflicting_source): callers block on the interprocedural
   barrier waiting at fn0's entry while non-callers block on the PDOM
   join — complementary waiting sets. *)
let conflicting_source =
  {|
func fn0(p0: float) -> float {
}

kernel k() {
  var accf3: float = 0.0;
  predict func fn0;
  for i5 in 0 .. 1 {
    if ((randint(3) == 0)) {
      accf3 = (accf3 + fn0(fabs((rand() - rand()))));
    }
  }
}
|}

let is_deadlock_category c = c = BS.Bypassable_wait || c = BS.Unseparated_overlap

let test_ablation_flags_interproc_deadlock () =
  let ast = Front.Parser.parse_string conflicting_source in
  (* The ablated program, from the public passes: compile up to
     deconfliction, then run the pass blind to call-as-wait and clean up
     as the compiler would. *)
  let placed =
    C.compile_ast
      { C.speculative with C.deconflict = false; cleanup = false; lint = false; race = false }
      ast
  in
  let program = placed.C.program in
  let applied = placed.C.applied and interproc = placed.C.interproc_applied in
  let priority = C.make_priority ~applied ~interproc ~pdom:placed.C.pdom_barriers in
  ignore
    (Passes.Deconflict.run ~model_call_waits:false program ~strategy:Passes.Deconflict.Dynamic
       ~priority);
  ignore (Passes.Cleanup.run program);
  let decoded = Ir.Decoded.decode (Ir.Linear.linearize program) in
  Alcotest.(check bool)
    "srlint statically flags the shape under the ablation" true
    (List.exists (fun (f : BS.finding) -> is_deadlock_category f.BS.category)
       (BS.check ~speculative:(C.speculative_meta ~applied ~interproc) program));
  (* The static flag is truthful: the ablated binary really deadlocks. *)
  let deadlocked =
    List.exists
      (fun policy ->
        let config = { Fuzz.Oracle.base_config with Simt.Config.policy } in
        match
          Simt.Interp.run config decoded ~args:[]
            ~init_memory:(Fuzz.Oracle.init_memory program)
        with
        | _ -> false
        | exception Simt.Interp.Deadlock _ -> true)
      Fuzz.Oracle.policies
  in
  Alcotest.(check bool) "ablated compilation deadlocks in the simulator" true deadlocked;
  (* With call-as-wait modeling restored, both the pass and the checker
     agree the program is safe. *)
  let fixed = C.compile_ast { C.speculative with C.lint = false } ast in
  Alcotest.(check int) "no findings with modeling on" 0 (List.length fixed.C.lint_findings)

(* ---- clean sweep over examples and corpus ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let simt_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simt")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_clean_sweep () =
  let files = simt_files "../examples/kernels" @ simt_files "corpus" in
  Alcotest.(check bool)
    (Printf.sprintf "sweep covers examples and corpus (found %d)" (List.length files))
    true
    (List.length files >= 10);
  List.iter
    (fun path ->
      let ast = Front.Parser.parse_string (read_file path) in
      List.iter
        (fun (mode, options) ->
          match (C.compile_ast { options with C.lint = false } ast).C.lint_findings with
          | [] -> ()
          | fs -> Alcotest.failf "%s (%s): %s" path mode (render fs))
        [ ("baseline", C.baseline); ("specrecon", C.speculative); ("auto", C.automatic) ])
    files

(* ---- generator reach: threshold-gated hints ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_generator_threshold_hints () =
  let sources = List.init 120 (fun id -> Front.Pretty.to_string (Fuzz.Gen.generate ~seed:7 id).Fuzz.Gen.ast) in
  let label_threshold =
    List.exists (fun s -> contains s " threshold " && not (contains s "predict func")) sources
  in
  let func_threshold = List.exists (fun s -> contains s "predict func fn0 threshold ") sources in
  Alcotest.(check bool) "label hints with thresholds are generated" true label_threshold;
  Alcotest.(check bool) "func hints with thresholds are generated" true func_threshold

let tests =
  [
    ( "lint.diagnostics",
      [
        Alcotest.test_case "bypassable-wait (3-cycle)" `Quick test_bypassable_wait;
        Alcotest.test_case "unseparated-overlap (mutual 2-cycle)" `Quick
          test_unseparated_overlap;
        Alcotest.test_case "double-arrive" `Quick test_double_arrive;
        Alcotest.test_case "unallocated slot id" `Quick test_unallocated_slot;
        Alcotest.test_case "orphan wait" `Quick test_orphan_wait;
        Alcotest.test_case "constant-branch arms pruned" `Quick test_constant_branch_pruned;
        Alcotest.test_case "undominated speculative wait" `Quick test_undominated_wait;
        Alcotest.test_case "escape through mutual recursion" `Quick
          test_escape_through_recursion;
        Alcotest.test_case "source-line provenance" `Quick test_provenance_line;
      ] );
    ( "lint.soundness",
      [
        Alcotest.test_case "ablated deconflict: flagged statically, deadlocks dynamically"
          `Quick test_ablation_flags_interproc_deadlock;
        Alcotest.test_case "examples and corpus lint clean in all modes" `Slow
          test_clean_sweep;
        Alcotest.test_case "generator emits threshold-gated hints" `Quick
          test_generator_threshold_hints;
      ] );
  ]
