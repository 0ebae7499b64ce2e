(* srrace (Analysis.Race_safety) and its dynamic differential oracle
   (Simt.Race_log) regression gates:

   - phase partitioning: a full wait separates barrier intervals, so
     accesses the PDOM reconvergence barrier orders do not race — and
     the same accesses with no wait between them do;
   - affine exactness: lane-affine address forms are decided by the gcd
     residue test, so stride-disjoint access patterns are proven clean
     while genuinely colliding strides are flagged;
   - interprocedural call-as-wait (§4.4): a callee whose every path
     crosses a full wait separates the caller's phases at the call;
   - PDOM-vs-speculative differential: a finding present only under the
     broken placement is re-categorized race-introduced;
   - machine diagnostics: byte-stable key=value renderings with source
     provenance, same contract as srlint's;
   - shadow logger: the dynamic checker sees exactly the races the
     static verdicts predict, per-warp epochs cut at organic barrier
     fires, and the event log is deterministic across reruns (this
     suite absorbed the decoded-interpreter assertions that lived in
     test_decoded before Simt.Interp_ref was deleted). *)

module T = Ir.Types
module B = Ir.Builder
module RS = Analysis.Race_safety
module C = Core.Compile

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile options source =
  C.compile_ast { options with C.lint = false } (Front.Parser.parse_string source)

let race options source = (compile options source).C.race_findings

let both_modes = [ ("baseline", C.baseline); ("specrecon", C.speculative) ]

let header = "global outi: int[64];\nglobal share: int[128];\n"

(* ---- phase partitioning ---- *)

(* The store and the shifted read collide across threads (thread t
   writes cell t, thread t+1 reads it). A divergent if between them
   makes PDOM insert a reconvergence wait, which puts them in different
   barrier intervals — clean under both placements. *)
let separated_source =
  header
  ^ "kernel k() {\n\
    \  share[tid()] = tid();\n\
    \  if (tid() < 32) { outi[tid()] = 1; } else { outi[tid()] = 2; }\n\
    \  outi[tid()] = share[((tid() + 1) % 64)];\n\
     }\n"

(* Identical accesses, no divergence between them: one interval, racy. *)
let unseparated_source =
  header
  ^ "kernel k() {\n\
    \  share[tid()] = tid();\n\
    \  outi[tid()] = share[((tid() + 1) % 64)];\n\
     }\n"

let test_phase_partitioning () =
  List.iter
    (fun (name, mode) ->
      check_string
        (Printf.sprintf "wait-separated accesses are clean (%s)" name)
        "" (RS.render (race mode separated_source));
      check_bool
        (Printf.sprintf "same accesses in one interval race (%s)" name)
        true
        (List.exists
           (fun (f : RS.finding) -> f.RS.category = RS.Read_write && f.RS.global = "share")
           (race mode unseparated_source)))
    both_modes

(* ---- affine conflict / disjointness ---- *)

let test_affine_disjointness () =
  (* Even/odd stride-2 interleave: same slope, offsets differ, and the
     slope does not divide the offset gap — proven disjoint exactly. *)
  let disjoint =
    header
    ^ "kernel k() {\n\
      \  share[(2 * tid())] = 1;\n\
      \  share[((2 * tid()) + 1)] = 2;\n\
       }\n"
  in
  check_string "stride-2 even/odd stores are proven disjoint" ""
    (RS.render (race C.baseline disjoint));
  (* Strides 2 and 4 with offset 2: gcd(2,4)=2 divides 2, and indeed
     thread 1's even store lands on thread 0's cell 2. *)
  let colliding =
    header
    ^ "kernel k() {\n\
      \  share[(2 * tid())] = 1;\n\
      \  share[((4 * tid()) + 2)] = 2;\n\
       }\n"
  in
  check_bool "gcd residue test catches the stride collision" true
    (List.exists
       (fun (f : RS.finding) -> f.RS.category = RS.Write_write)
       (race C.baseline colliding));
  (* Injective per-thread stores never self-conflict. *)
  check_string "tid-injective store is clean" ""
    (RS.render (race C.baseline (header ^ "kernel k() {\n  share[tid()] = tid();\n}\n")));
  (* A uniform store is the canonical intra-interval WW. *)
  check_bool "uniform single-cell store is write-write" true
    (List.exists
       (fun (f : RS.finding) -> f.RS.category = RS.Write_write && f.RS.global = "share")
       (race C.baseline (header ^ "kernel k() {\n  share[0] = 1;\n}\n")))

(* ---- interprocedural call-as-wait ---- *)

(* fn0 contains a divergent branch, so PDOM places a reconvergence wait
   inside it on every path: calling it separates the caller's phases
   (§4.4), exactly like an inline wait would. *)
let callee_waits_source =
  header
  ^ "func fn0(p0: int) -> int {\n\
    \  if (tid() < 16) { outi[tid()] = p0; } else { outi[tid()] = (p0 + 1); }\n\
    \  return p0;\n\
     }\n\n\
     kernel k() {\n\
    \  share[tid()] = tid();\n\
    \  var x: int = fn0(3);\n\
    \  outi[tid()] = (share[((tid() + 1) % 64)] + x);\n\
     }\n"

(* Same caller, but the callee is straight-line: no wait inside, so the
   call separates nothing and the collision is in one interval. *)
let callee_no_wait_source =
  header
  ^ "func fn0(p0: int) -> int {\n\
    \  return (p0 * 2);\n\
     }\n\n\
     kernel k() {\n\
    \  share[tid()] = tid();\n\
    \  var x: int = fn0(3);\n\
    \  outi[tid()] = (share[((tid() + 1) % 64)] + x);\n\
     }\n"

let test_interprocedural_call_as_wait () =
  check_string "a callee that always waits separates the caller's phases" ""
    (RS.render (race C.baseline callee_waits_source));
  check_bool "a waitless callee separates nothing" true
    (List.exists
       (fun (f : RS.finding) -> f.RS.category = RS.Read_write && f.RS.global = "share")
       (race C.baseline callee_no_wait_source))

(* ---- PDOM-vs-speculative differential ---- *)

let test_race_introduced_diff () =
  (* Hand-built placements of one kernel: the PDOM one orders the store
     and the shifted load with a full wait; the "speculative transform"
     dropped it. The diff must re-categorize the surviving finding as
     race-introduced with the restore-pdom-order hint. *)
  let build ~with_wait =
    let p = B.create_program () in
    let base = B.alloc_global p "share" 64 in
    let f = B.create_func p "k" ~params:0 in
    B.set_kernel p "k";
    let t = B.fresh_reg f and a = B.fresh_reg f in
    let s = B.fresh_reg f and v = B.fresh_reg f in
    let b0 = B.fresh_barrier p in
    B.append f f.T.entry (T.Tid t);
    B.append f f.T.entry (T.Bin (T.Add, a, T.Imm (T.I base), T.Reg t));
    B.append f f.T.entry (T.Store (T.Reg a, T.Reg t));
    if with_wait then begin
      B.append f f.T.entry (T.Join b0);
      B.append f f.T.entry (T.Wait b0)
    end;
    B.append f f.T.entry (T.Bin (T.Rem, s, T.Reg t, T.Imm (T.I 63)));
    B.append f f.T.entry (T.Bin (T.Add, s, T.Reg s, T.Imm (T.I (base + 1))));
    B.append f f.T.entry (T.Load (v, T.Reg s));
    B.set_term f f.T.entry T.Exit;
    p
  in
  let baseline = RS.check (build ~with_wait:true) in
  check_int "the ordered placement is clean" 0 (List.length baseline);
  let broken = RS.check (build ~with_wait:false) in
  check_bool "the unordered placement is flagged" true (broken <> []);
  let diffed = RS.diff ~baseline broken in
  check_bool "every surviving finding is race-introduced" true
    (diffed <> []
    && List.for_all (fun (f : RS.finding) -> f.RS.category = RS.Race_introduced) diffed);
  List.iter
    (fun (f : RS.finding) ->
      check_string "hint names the pdom-order repair" "restore-pdom-order" (RS.hint f))
    diffed

(* ---- machine diagnostics (expect tests) ---- *)

let test_machine_diagnostics () =
  check_string "uniform WW renders with provenance"
    "srrace: category=write-write func=k block=bb0 line=4 global=share other_func=k \
     other_line=4 msg=threads of the same barrier interval may write the same cell \
     share[0] from this one store fix=separate the writes with a full wait.barrier, or \
     make the store index injective in tid hint=insert-wait"
    (RS.render (race C.baseline (header ^ "kernel k() {\n  share[0] = 1;\n}\n")));
  check_string "RW pair renders both sites"
    "srrace: category=read-write func=k block=bb0 line=4 global=share other_func=k \
     other_line=4 msg=write of share[tid] here may race with read of share[[0..63]] at \
     k/bb0#10 (line 4): no full barrier separates them fix=separate the read from the \
     write with a full wait.barrier hint=insert-wait"
    (RS.render (race C.baseline unseparated_source))

(* ---- the shadow-memory logger (dynamic half) ---- *)

let run_logged ?(policy = Simt.Config.Round_robin) mode source =
  let staged = compile mode source in
  let config = { Fuzz.Oracle.base_config with Simt.Config.policy } in
  let log =
    Simt.Race_log.create ~size:staged.C.program.T.mem_size
      ~n_warps:config.Simt.Config.n_warps ()
  in
  let result =
    Simt.Interp.run ~race:log config staged.C.decoded ~entry:"k" ~args:[]
      ~init_memory:(Fuzz.Oracle.init_memory staged.C.program)
  in
  (log, result)

let test_logger_agrees_with_static () =
  List.iter
    (fun (name, mode) ->
      let clean, _ = run_logged mode separated_source in
      check_int
        (Printf.sprintf "wait-separated program logs no race (%s)" name)
        0
        (Simt.Race_log.total clean);
      let racy, _ = run_logged mode unseparated_source in
      check_bool
        (Printf.sprintf "one-interval collision is observed (%s)" name)
        true
        (Simt.Race_log.total racy > 0))
    both_modes;
  let interp, _ = run_logged C.baseline callee_waits_source in
  check_int "callee wait separates dynamically too" 0 (Simt.Race_log.total interp)

let test_logger_deterministic () =
  (* Same config, same event log — the logger is part of the
     deterministic machine, like the yield log. *)
  List.iter
    (fun policy ->
      let a, ra = run_logged ~policy C.speculative unseparated_source in
      let b, rb = run_logged ~policy C.speculative unseparated_source in
      check_bool "identical race events across reruns" true
        (Simt.Race_log.events a = Simt.Race_log.events b);
      check_int "identical totals across reruns" (Simt.Race_log.total a)
        (Simt.Race_log.total b);
      check_bool "identical metrics across reruns" true
        (ra.Simt.Interp.metrics = rb.Simt.Interp.metrics))
    Fuzz.Oracle.policies

let test_logger_zero_overhead_shape () =
  (* Absorbed from the old reference-interpreter differential: running
     with the logger armed must not perturb the machine — metrics and
     memory are bit-identical to an unlogged run. *)
  List.iter
    (fun source ->
      let staged = compile C.speculative source in
      let config = Fuzz.Oracle.base_config in
      let log =
        Simt.Race_log.create ~size:staged.C.program.T.mem_size
          ~n_warps:config.Simt.Config.n_warps ()
      in
      let init = Fuzz.Oracle.init_memory staged.C.program in
      let logged =
        Simt.Interp.run ~race:log config staged.C.decoded ~entry:"k" ~args:[]
          ~init_memory:init
      in
      let plain =
        Simt.Interp.run config staged.C.decoded ~entry:"k" ~args:[] ~init_memory:init
      in
      check_bool "metrics identical with and without the logger" true
        (logged.Simt.Interp.metrics = plain.Simt.Interp.metrics);
      check_bool "memory identical with and without the logger" true
        (Fuzz.Oracle.snapshot logged.Simt.Interp.memory
        = Fuzz.Oracle.snapshot plain.Simt.Interp.memory))
    [ separated_source; unseparated_source; callee_waits_source ]

let tests =
  [
    ( "race.static",
      [
        Alcotest.test_case "phase partitioning" `Quick test_phase_partitioning;
        Alcotest.test_case "affine conflict and disjointness" `Quick test_affine_disjointness;
        Alcotest.test_case "interprocedural call-as-wait" `Quick
          test_interprocedural_call_as_wait;
        Alcotest.test_case "pdom-vs-speculative differential" `Quick test_race_introduced_diff;
        Alcotest.test_case "machine diagnostics" `Quick test_machine_diagnostics;
      ] );
    ( "race.dynamic",
      [
        Alcotest.test_case "logger agrees with the static verdicts" `Quick
          test_logger_agrees_with_static;
        Alcotest.test_case "logger deterministic per policy" `Quick test_logger_deterministic;
        Alcotest.test_case "logger does not perturb the machine" `Quick
          test_logger_zero_overhead_shape;
      ] );
  ]
