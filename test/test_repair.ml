(* Repair synthesis (Analysis.Barrier_repair) regression gates:

   - one synthesized-edit case per finding category: the hand-built IR
     from the lint expect-tests must come back Repaired, re-check clean,
     with the hinted edit class chosen;
   - cost ordering: with two single-edit repairs available, the search
     must pick the one outside the loop (the §4.5 frequency tie-break),
     and prefer a hoist over an equal-cost cancel by enumeration order;
   - unrepairable: a program with two independent waits-for cycles
     under a one-edit budget must be reported Unrepairable with the
     blocking finding named (and repair fine under the default budget);
   - idempotence: repairing an accepted repair is a no-op (Clean);
   - corpus: every deadlock repro in test/corpus/ auto-repairs, and the
     repaired program runs to completion under every scheduler with
     yield recovery ENABLED and zero yields taken, landing on memory
     bit-identical to the PDOM baseline — the dynamic proof behind the
     @repair-smoke gate's exit codes. *)

module T = Ir.Types
module B = Ir.Builder
module BS = Analysis.Barrier_safety
module BR = Analysis.Barrier_repair
module C = Core.Compile
module Oracle = Fuzz.Oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Inline-record payloads cannot escape their match, so the helper hands
   back the fields the tests use. *)
let repaired name outcome =
  match outcome with
  | BR.Repaired { program; edits; _ } -> (program, edits)
  | BR.Clean -> Alcotest.failf "%s: expected Repaired, got Clean" name
  | BR.Unrepairable { blocking; _ } ->
    Alcotest.failf "%s: expected Repaired, got Unrepairable (%s)" name
      (Format.asprintf "%a" BS.pp_machine blocking)

let assert_clean name ?(speculative = []) p =
  match BS.check ~speculative p with
  | [] -> ()
  | fs -> Alcotest.failf "%s: repaired program still flagged: %s" name (BS.render fs)

(* ---- one synthesized edit per category ---- *)

(* Rock-paper-scissors 3-cycle (test_lint.test_bypassable_wait). *)
let cycle3_program () =
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
  p

let test_bypassable_wait () =
  let p = cycle3_program () in
  let findings = BS.check p in
  check_bool "program is flagged" true (findings <> []);
  (* The hinted class leads the candidate list. *)
  (match BR.candidates p (List.hd findings) with
  | [] -> Alcotest.fail "no candidates for a bypassable-wait finding"
  | (e, _) :: _ -> check_string "hinted class first" "insert-cancel" (BR.edit_class e));
  let q, edits = repaired "3-cycle" (BR.repair p) in
  check_int "one edit breaks the cycle" 1 (List.length edits);
  check_string "and it is a cancel insertion" "insert-cancel"
    (BR.edit_class (List.hd edits));
  assert_clean "3-cycle" q;
  (* The input program is never mutated: still flagged. *)
  check_bool "input untouched" true (BS.check p <> [])

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
  check_int "cycle and overlap reported" 2 (List.length (BS.check p));
  let q, edits = repaired "mutual overlap" (BR.repair p) in
  check_int "one edit clears both findings" 1 (List.length edits);
  assert_clean "mutual overlap" q

let test_double_arrive () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b0; T.Wait b0 ];
  let findings = BS.check p in
  (match BR.candidates p (List.hd findings) with
  | (BR.Split_slot { fresh; _ }, _) :: _ ->
    check_int "split mints the next unallocated slot" 1 fresh
  | _ -> Alcotest.fail "expected a split-slot candidate first");
  let q, edits = repaired "double arrive" (BR.repair p) in
  assert_clean "double arrive" q;
  check_string "repaired by splitting the slot" "split-slot"
    (BR.edit_class (List.hd edits))

let test_unallocated_slot () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Wait b0; T.Cancel 3 ];
  let q, edits = repaired "out-of-range slot" (BR.repair p) in
  assert_clean "out-of-range slot" q;
  check_string "repaired by remapping into the allocated range" "remap-slot"
    (BR.edit_class (List.hd edits))

let test_orphan_wait () =
  (* No arrive site anywhere: nothing to remap to, so the only edit
     left is deleting the orphan primitive. *)
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  B.append f f.T.entry (T.Wait b0);
  let q, edits = repaired "orphan wait" (BR.repair p) in
  assert_clean "orphan wait" q;
  check_string "repaired by dropping the orphan" "drop-barrier"
    (BR.edit_class (List.hd edits))

let test_undominated_wait () =
  (* Join in one arm, wait at the merge (rule 5). Hoisting the wait into
     the join block and cancelling at the merge cost the same (neither
     is in a loop), so the enumeration order decides: the hoist is the
     hinted class and comes first. *)
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
  let speculative = [ { BS.sfunc = "k"; slot = b0; join_block = arm } ] in
  let q, edits = repaired "undominated wait" (BR.repair ~speculative p) in
  assert_clean "undominated wait" ~speculative q;
  match edits with
  | [ (BR.Move_wait { to_block; hoist; _ } as e) ] ->
    check_string "hoist chosen over equal-cost cancel" "hoist-wait" (BR.edit_class e);
    check_bool "marked as a hoist" true hoist;
    check_int "lands in the join block" arm to_block
  | es -> Alcotest.failf "expected one hoist, got: %s" (BR.render_edits es)

(* ---- cost ordering: the frequency tie-break ---- *)

let test_cost_prefers_cooler_block () =
  (* Mutual 2-cycle with one wait inside a loop: cancelling before the
     loop-resident wait costs barrier_weight * default_trip, cancelling
     before the straight-line wait costs barrier_weight * 1. Both are
     single-edit repairs, so the search must return the cheap one. *)
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p in
  let arm_a = B.add_block f in
  let head = B.add_block f and body = B.add_block f and out = B.add_block f in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b1 ];
  let c = B.fresh_reg f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = arm_a; if_false = head });
  B.append f arm_a (T.Wait b0);
  B.set_term f head (T.Br { cond = T.Reg c; if_true = body; if_false = out });
  B.append f body (T.Wait b1);
  B.set_term f body (T.Jump head);
  ignore out;
  let q, edits = repaired "loop vs straight-line" (BR.repair p) in
  match edits with
  | [ BR.Insert_cancel { block; cancel; _ } ] ->
    check_int "cancel lands in the straight-line arm, not the loop" arm_a block;
    check_int "and withdraws the loop-side slot" b1 cancel;
    assert_clean "loop vs straight-line" q
  | es -> Alcotest.failf "expected one insert-cancel, got: %s" (BR.render_edits es)

(* ---- unrepairable: budget exhaustion names the blocking finding ---- *)

(* Two independent mutual cycles: {b0,b1} across arms 1/2 and {b2,b3}
   across arms 3/4. No single edit clears both. *)
let double_cycle_program () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p and b1 = B.fresh_barrier p in
  let b2 = B.fresh_barrier p and b3 = B.fresh_barrier p in
  let arm1 = B.add_block f and arm2 = B.add_block f in
  let mid = B.add_block f in
  let arm3 = B.add_block f and arm4 = B.add_block f in
  let tail = B.add_block f in
  List.iter (B.append f f.T.entry) [ T.Join b0; T.Join b1 ];
  let c = B.fresh_reg f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = arm1; if_false = arm2 });
  List.iter (B.append f arm1) [ T.Wait b0; T.Cancel b1 ];
  List.iter (B.append f arm2) [ T.Wait b1; T.Cancel b0 ];
  B.set_term f arm1 (T.Jump mid);
  B.set_term f arm2 (T.Jump mid);
  List.iter (B.append f mid) [ T.Join b2; T.Join b3 ];
  B.set_term f mid (T.Br { cond = T.Reg c; if_true = arm3; if_false = arm4 });
  List.iter (B.append f arm3) [ T.Wait b2; T.Cancel b3 ];
  List.iter (B.append f arm4) [ T.Wait b3; T.Cancel b2 ];
  B.set_term f arm3 (T.Jump tail);
  B.set_term f arm4 (T.Jump tail);
  p

let test_unrepairable_names_blocking_finding () =
  let p = double_cycle_program () in
  (match BR.repair ~max_edits:1 p with
  | BR.Unrepairable { blocking; explored } ->
    check_string "a cycle blocks the one-edit repair" "bypassable-wait"
      (BS.category_name blocking.BS.category);
    check_bool "the search actually explored states" true (explored > 0)
  | BR.Clean -> Alcotest.fail "expected Unrepairable, got Clean"
  | BR.Repaired { edits; _ } ->
    Alcotest.failf "expected Unrepairable under a one-edit budget, got: %s"
      (BR.render_edits edits));
  (* The budget, not the program, was the obstacle. *)
  let q, edits = repaired "double cycle, default budget" (BR.repair p) in
  check_int "two edits, one per cycle" 2 (List.length edits);
  assert_clean "double cycle" q

(* ---- idempotence ---- *)

let test_idempotent () =
  let p = cycle3_program () in
  let q, _ = repaired "first repair" (BR.repair p) in
  match BR.repair q with
  | BR.Clean -> ()
  | BR.Repaired _ | BR.Unrepairable _ ->
    Alcotest.fail "repairing a repaired program must be a no-op (Clean)"

(* ---- corpus: repaired repros run clean, zero yields, PDOM memory ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simt")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_repairs () =
  let files = corpus_files () in
  check_bool
    (Printf.sprintf "corpus holds at least 5 repros (found %d)" (List.length files))
    true
    (List.length files >= 5);
  List.iter
    (fun path ->
      let ast = Front.Parser.parse_string (read_file path) in
      (* The conflicting placement: speculative compilation with
         deconfliction off — what the repros were minimized to deadlock
         under. *)
      let broken =
        C.compile_ast { C.speculative with C.deconflict = false; lint = false } ast
      in
      if broken.C.lint_findings = [] then
        Alcotest.failf "%s: expected findings with deconfliction off" path;
      let speculative =
        C.speculative_meta ~applied:broken.C.applied ~interproc:broken.C.interproc_applied
      in
      let fixed =
        match BR.repair ~speculative broken.C.program with
        | BR.Repaired { program; _ } -> program
        | BR.Clean -> Alcotest.failf "%s: repair claims clean on a flagged program" path
        | BR.Unrepairable { blocking; _ } ->
          Alcotest.failf "%s: unrepairable (%s)" path
            (Format.asprintf "%a" BS.pp_machine blocking)
      in
      assert_clean path ~speculative fixed;
      (* PDOM reference image per kernel. *)
      let baseline = C.compile_ast { C.baseline with C.lint = false } ast in
      let linear = Ir.Linear.linearize fixed in
      let decoded = Ir.Decoded.decode linear in
      List.iter
        (fun (kf : Ir.Linear.finfo) ->
          let kname = kf.Ir.Linear.fname in
          let reference =
            Simt.Interp.run Oracle.base_config baseline.C.decoded ~entry:kname
              ~args:[]
              ~init_memory:(Oracle.init_memory baseline.C.program)
          in
          List.iter
            (fun policy ->
              (* Yield recovery ON: a correct repair must never need it,
                 so yields must stay zero (the watchdog would otherwise
                 mask a repair that still deadlocks). *)
              let config =
                { Oracle.base_config with
                  Simt.Config.policy;
                  yield_on_stall = true;
                  yield_policy = Simt.Config.Oldest_arrival
                }
              in
              let result =
                Simt.Interp.run config decoded ~entry:kname ~args:[]
                  ~init_memory:(Oracle.init_memory fixed)
              in
              let where =
                Printf.sprintf "%s/%s/%s" path (Simt.Config.policy_name policy) kname
              in
              check_int
                (where ^ ": zero yields on the repaired program")
                0
                result.Simt.Interp.metrics.Simt.Metrics.yields;
              check_int
                (where ^ ": all threads finish")
                reference.Simt.Interp.metrics.Simt.Metrics.threads_finished
                result.Simt.Interp.metrics.Simt.Metrics.threads_finished;
              match
                Oracle.first_diff
                  (Oracle.snapshot reference.Simt.Interp.memory)
                  (Oracle.snapshot result.Simt.Interp.memory)
              with
              | None -> ()
              | Some addr ->
                Alcotest.failf "%s: memory differs from the PDOM baseline at address %d"
                  where addr)
            Oracle.policies)
        (Oracle.runnable_kernels linear))
    files

let tests =
  [
    ( "repair.synthesis",
      [
        Alcotest.test_case "bypassable-wait: insert-cancel" `Quick test_bypassable_wait;
        Alcotest.test_case "unseparated-overlap: one edit clears both" `Quick
          test_unseparated_overlap;
        Alcotest.test_case "double-arrive: split-slot" `Quick test_double_arrive;
        Alcotest.test_case "unallocated-slot: remap-slot" `Quick test_unallocated_slot;
        Alcotest.test_case "orphan wait: drop-barrier" `Quick test_orphan_wait;
        Alcotest.test_case "undominated-wait: hoist into the join block" `Quick
          test_undominated_wait;
        Alcotest.test_case "cost model prefers the cooler block" `Quick
          test_cost_prefers_cooler_block;
        Alcotest.test_case "unrepairable under budget names the blocking finding" `Quick
          test_unrepairable_names_blocking_finding;
        Alcotest.test_case "repair is idempotent" `Quick test_idempotent;
      ] );
    ( "repair.corpus",
      [
        Alcotest.test_case "every deadlock repro repairs to PDOM-identical memory" `Quick
          test_corpus_repairs;
      ] );
  ]
