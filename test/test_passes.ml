(* Tests for the synchronization passes: baseline PDOM insertion, the
   Speculative Reconvergence algorithm (checked against Figure 4(d)),
   static/dynamic deconfliction, the interprocedural variant, automatic
   detection, and the soft-barrier threshold plumbing. *)

module T = Ir.Types
module ISet = Analysis.Sets.Int_set

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let compile = Front.Lower.compile_source

let kernel_func (p : T.program) = Hashtbl.find p.T.funcs p.T.kernel

let insts_of f bid = (T.block f bid).T.insts

let count_inst f pred =
  let n = ref 0 in
  T.iter_blocks f (fun b -> List.iter (fun i -> if pred i then incr n) b.T.insts);
  !n

let has_inst f pred = count_inst f pred > 0

(* ---- Pdom_sync ---- *)

let listing1_src =
  {|
global out: float[4096];
kernel k(n: int) {
  var acc: float = 0.0;
  predict L1;
  for i in 0 .. n {
    let r = randint(4);
    if (r == 0) {
      L1:
      var j: int = 0;
      while (j < 16) { acc = acc + sin(acc) * 0.25; j = j + 1; }
    }
    acc = acc + 0.001;
  }
  out[tid()] = acc;
}
|}

let test_pdom_inserts_at_ipdom () =
  let p = compile listing1_src in
  Hashtbl.iter (fun _ (f : T.func) -> f.T.hints <- []) p.T.funcs;
  let divergence = Analysis.Divergence.run p in
  let inserted = Passes.Pdom_sync.run p divergence in
  check_bool "at least one barrier" true (inserted <> []);
  let f = kernel_func p in
  let g = Analysis.Cfg.of_func f in
  let pdom = Analysis.Dom.Post.compute g in
  List.iter
    (fun (fname, branch_block, b) ->
      check Alcotest.string "in kernel" "k" fname;
      (* the Join sits in the branch block *)
      check_bool "join present" true
        (List.exists (fun i -> i = T.Join b) (insts_of f branch_block));
      (* the Wait sits at the branch's immediate post-dominator *)
      match Analysis.Dom.Post.ipdom pdom branch_block with
      | Some d ->
        check_bool "wait at ipdom" true (List.exists (fun i -> i = T.Wait b) (insts_of f d))
      | None -> Alcotest.fail "divergent branch without ipdom got a barrier")
    inserted

let test_pdom_skips_uniform () =
  let p = compile "kernel k(n: int) { if (n > 0) { let x = 1; } }" in
  let divergence = Analysis.Divergence.run p in
  check_int "no barriers for uniform branch" 0 (List.length (Passes.Pdom_sync.run p divergence))

(* ---- Specrecon (Figure 4(d)) ---- *)

let test_specrecon_figure4_shape () =
  let p = compile listing1_src in
  let applied = Passes.Specrecon.run p in
  check_int "one hint applied" 1 (List.length applied);
  let a = List.hd applied in
  let f = kernel_func p in
  let b0 = a.Passes.Specrecon.user_barrier in
  (* Join b0 at the region start (the Predict location) *)
  check_bool "join at region start" true
    (List.exists (fun i -> i = T.Join b0) (insts_of f a.Passes.Specrecon.region_start));
  (* Wait b0 at the predicted label, immediately followed by the Rejoin
     (threads wait on the barrier again next iteration: Figure 4(d)) *)
  (match insts_of f a.Passes.Specrecon.target_block with
  | T.Wait x :: T.Rejoin y :: _ when x = b0 && y = b0 -> ()
  | _ -> Alcotest.fail "expected [Wait b0; Rejoin b0] at the reconvergence point");
  check_bool "rejoined flag" true a.Passes.Specrecon.rejoined;
  (* Cancels on the region-exit frontier *)
  check_bool "cancel inserted" true (a.Passes.Specrecon.cancel_blocks <> []);
  List.iter
    (fun x ->
      check_bool "cancel at frontier block" true
        (List.exists (fun i -> i = T.Cancel b0) (insts_of f x)))
    a.Passes.Specrecon.cancel_blocks;
  (* The orthogonal region barrier joins with b0 and waits at the region
     post-dominator, after the frontier cancel *)
  match a.Passes.Specrecon.region_barrier with
  | None -> Alcotest.fail "expected a region barrier"
  | Some b1 ->
    check_bool "region join at start" true
      (List.exists (fun i -> i = T.Join b1) (insts_of f a.Passes.Specrecon.region_start));
    let wait_blocks = ref [] in
    T.iter_blocks f (fun b ->
        if List.exists (fun i -> i = T.Wait b1) b.T.insts then wait_blocks := b.T.id :: !wait_blocks);
    check_int "region wait exists once" 1 (List.length !wait_blocks);
    let exit_block = List.hd !wait_blocks in
    (* in that block, any Cancel precedes the region wait *)
    let rec check_order seen_wait = function
      | [] -> ()
      | T.Cancel _ :: rest ->
        check_bool "cancel before region wait" false seen_wait;
        check_order seen_wait rest
      | T.Wait x :: rest when x = b1 -> check_order true rest
      | _ :: rest -> check_order seen_wait rest
    in
    check_order false (insts_of f exit_block)

let test_specrecon_threshold () =
  let p = compile listing1_src in
  (* force a soft barrier *)
  Hashtbl.iter
    (fun _ (f : T.func) ->
      f.T.hints <-
        List.map (fun (h : T.predict_hint) -> { h with T.threshold = Some 6 }) f.T.hints)
    p.T.funcs;
  let applied = Passes.Specrecon.run p in
  let a = List.hd applied in
  let f = kernel_func p in
  match insts_of f a.Passes.Specrecon.target_block with
  | T.Wait_threshold (_, 6) :: _ -> ()
  | _ -> Alcotest.fail "expected a threshold wait at the reconvergence point"

let test_specrecon_unknown_label () =
  let p = compile "kernel k() { }" in
  let f = kernel_func p in
  f.T.hints <-
    [ { T.target = T.Label_target "ghost"; region_start = f.T.entry; threshold = None } ];
  match Passes.Specrecon.run p with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on unknown label"

(* ---- Deconfliction ---- *)

let compile_with_conflict () =
  let p = compile listing1_src in
  let applied = Passes.Specrecon.run p in
  let divergence = Analysis.Divergence.run p in
  let pdom = Passes.Pdom_sync.run p divergence in
  (p, List.hd applied, pdom)

let priority_of applied pdom fname b =
  let a = applied in
  if b = a.Passes.Specrecon.user_barrier then 3
  else if Some b = a.Passes.Specrecon.region_barrier then 2
  else if List.exists (fun (f, _, x) -> String.equal f fname && x = b) pdom then 1
  else 1

let test_deconflict_dynamic () =
  let p, a, pdom = compile_with_conflict () in
  let report =
    Passes.Deconflict.run p ~strategy:Passes.Deconflict.Dynamic ~priority:(priority_of a pdom)
  in
  check_bool "resolved something" true (report.Passes.Deconflict.resolutions <> []);
  check_int "nothing unresolved" 0 (List.length report.Passes.Deconflict.unresolved);
  let f = kernel_func p in
  List.iter
    (fun (r : Passes.Deconflict.resolution) ->
      check_int "user barrier kept" a.Passes.Specrecon.user_barrier r.Passes.Deconflict.kept;
      (* dynamic: a Cancel of the demoted barrier sits immediately before
         the kept barrier's wait (Figure 5(c)) *)
      let target_insts = insts_of f a.Passes.Specrecon.target_block in
      let rec find = function
        | T.Cancel x :: (T.Wait y | T.Wait_threshold (y, _)) :: _
          when x = r.Passes.Deconflict.demoted && y = r.Passes.Deconflict.kept -> true
        | _ :: rest -> find rest
        | [] -> false
      in
      check_bool "cancel before kept wait" true (find target_insts);
      (* nothing was deleted *)
      check_bool "demoted barrier still present" true
        (has_inst f (fun i -> T.barrier_of i = Some r.Passes.Deconflict.demoted)))
    report.Passes.Deconflict.resolutions

let test_deconflict_static () =
  let p, a, pdom = compile_with_conflict () in
  let report =
    Passes.Deconflict.run p ~strategy:Passes.Deconflict.Static ~priority:(priority_of a pdom)
  in
  check_bool "resolved something" true (report.Passes.Deconflict.resolutions <> []);
  let f = kernel_func p in
  List.iter
    (fun (r : Passes.Deconflict.resolution) ->
      check_bool "demoted barrier deleted" false
        (has_inst f (fun i -> T.barrier_of i = Some r.Passes.Deconflict.demoted)))
    report.Passes.Deconflict.resolutions

let test_deconflict_same_priority_unresolved () =
  let p, _, _ = compile_with_conflict () in
  let report =
    Passes.Deconflict.run p ~strategy:Passes.Deconflict.Dynamic ~priority:(fun _ _ -> 1)
  in
  check_bool "same priority left unresolved" true (report.Passes.Deconflict.unresolved <> []);
  check_int "no resolutions" 0 (List.length report.Passes.Deconflict.resolutions)

(* Behavioural check: the conflict really deadlocks without deconfliction
   and runs fine with it. *)
let run_program ?(config = { Simt.Config.default with Simt.Config.n_warps = 1 }) p args =
  let decoded = Ir.Decoded.decode (Ir.Linear.linearize p) in
  Simt.Interp.run config decoded ~args ~init_memory:(fun _ -> ())

let test_conflict_deadlocks_without_deconfliction () =
  let p, _, _ = compile_with_conflict () in
  (match run_program p [ T.I 24 ] with
  | exception Simt.Interp.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected the unresolved conflict to deadlock");
  (* same program, dynamic deconfliction: completes *)
  let p2, a2, pdom2 = compile_with_conflict () in
  ignore
    (Passes.Deconflict.run p2 ~strategy:Passes.Deconflict.Dynamic ~priority:(priority_of a2 pdom2));
  let r = run_program p2 [ T.I 24 ] in
  check_int "all threads finished" 32 r.Simt.Interp.metrics.Simt.Metrics.threads_finished

let test_yield_recovers_from_conflict () =
  (* Volta-style forward progress: with yield_on_stall the unresolved
     conflict costs performance instead of hanging. *)
  let p, _, _ = compile_with_conflict () in
  let config =
    { Simt.Config.default with Simt.Config.n_warps = 1; yield_on_stall = true }
  in
  let r = run_program ~config p [ T.I 24 ] in
  check_int "all threads finished" 32 r.Simt.Interp.metrics.Simt.Metrics.threads_finished;
  check_bool "yields happened" true (r.Simt.Interp.metrics.Simt.Metrics.yields > 0)

(* ---- Interproc ---- *)

let common_call_src =
  {|
global out: float[4096];
func foo(x: float) -> float {
  var acc: float = x;
  var i: int = 0;
  while (i < 8) { acc = acc + sin(acc) * 0.5; i = i + 1; }
  return acc;
}
kernel k(n: int) {
  var out_acc: float = 0.0;
  predict func foo;
  for i in 0 .. n {
    if ((lane() + i) % 2 == 0) {
      out_acc = out_acc + foo(1.0);
    } else {
      out_acc = out_acc + foo(2.0) * 0.5;
    }
  }
  out[tid()] = out_acc;
}
|}

let test_interproc_shape () =
  let p = compile common_call_src in
  let applied = Passes.Interproc.run p in
  check_int "one interproc hint" 1 (List.length applied);
  let a = List.hd applied in
  check Alcotest.string "callee" "foo" a.Passes.Interproc.callee;
  check_int "two call blocks" 2 (List.length a.Passes.Interproc.call_blocks);
  let b = a.Passes.Interproc.barrier in
  let k = kernel_func p in
  (* Join at the region start in the caller *)
  check_bool "join in caller" true
    (List.exists (fun i -> i = T.Join b) (insts_of k a.Passes.Interproc.region_start));
  (* Wait at the callee's entry *)
  let foo = Hashtbl.find p.T.funcs "foo" in
  (match insts_of foo foo.T.entry with
  | T.Wait x :: _ when x = b -> ()
  | _ -> Alcotest.fail "expected the wait at the callee entry");
  (* Rejoin after the calls (the loop revisits them) *)
  check_bool "rejoins placed" true (a.Passes.Interproc.rejoin_sites <> []);
  (* Cancels on loop exit *)
  check_bool "cancels placed" true (a.Passes.Interproc.cancel_blocks <> [])

let test_interproc_behaviour () =
  (* The interprocedural barrier halves the issues spent in foo. *)
  let baseline = Core.Compile.compile Core.Compile.baseline ~source:common_call_src in
  let spec = Core.Compile.compile Core.Compile.speculative ~source:common_call_src in
  let config = { Simt.Config.default with Simt.Config.n_warps = 1 } in
  let run (c : Core.Compile.compiled) =
    Simt.Interp.run config c.Core.Compile.decoded ~args:[ T.I 8 ] ~init_memory:(fun _ -> ())
  in
  let rb = run baseline and rs = run spec in
  check_bool "fewer issues with interproc reconvergence" true
    (rs.Simt.Interp.metrics.Simt.Metrics.issues < rb.Simt.Interp.metrics.Simt.Metrics.issues);
  check_bool "higher efficiency" true
    (Simt.Metrics.simt_efficiency rs.Simt.Interp.metrics
    > Simt.Metrics.simt_efficiency rb.Simt.Interp.metrics);
  (* results identical *)
  let dump (r : Simt.Interp.result) = Simt.Memsys.dump r.Simt.Interp.memory ~base:0 ~len:64 in
  check_bool "results identical" true (dump rb = dump rs)

let test_interproc_errors () =
  let reject src =
    let p = compile src in
    match Passes.Interproc.run p with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "expected interproc rejection"
  in
  (* recursive target *)
  reject
    {|
func r(x: int) -> int { if (x <= 0) { return 0; } return r(x - 1); }
kernel k() { predict func r; let a = r(3); }
|};
  (* never-called target *)
  reject
    {|
func f() { }
kernel k() { predict func f; }
|}

(* ---- Auto_detect ---- *)

let test_auto_detect_iteration_delay () =
  let p = compile listing1_src in
  Hashtbl.iter (fun _ (f : T.func) -> f.T.hints <- []) p.T.funcs;
  let candidates = Passes.Auto_detect.detect Passes.Auto_detect.default_params p in
  check_bool "found candidates" true (candidates <> []);
  check_bool "an iteration-delay candidate exists" true
    (List.exists
       (fun (c : Passes.Auto_detect.candidate) -> c.kind = Passes.Auto_detect.Iteration_delay)
       candidates)

let test_auto_detect_loop_merge () =
  let p =
    compile
      {|
global out: float[4096];
kernel k(n: int) {
  var acc: float = 0.0;
  for t in 0 .. n {
    let trip = randint(64);
    var j: int = 0;
    while (j < trip) {
      acc = acc + sin(acc) * 0.25;
      j = j + 1;
    }
  }
  out[tid()] = acc;
}
|}
  in
  let candidates = Passes.Auto_detect.detect Passes.Auto_detect.default_params p in
  match candidates with
  | (c : Passes.Auto_detect.candidate) :: _ ->
    check_bool "top candidate is loop merge" true (c.kind = Passes.Auto_detect.Loop_merge)
  | [] -> Alcotest.fail "expected a loop-merge candidate"

let test_auto_detect_skips_uniform_trip () =
  (* A constant-trip inner loop must not be mistaken for a divergent one,
     even when control-dependence marks its counter divergent. *)
  let p =
    compile
      {|
global out: float[4096];
kernel k(n: int) {
  var acc: float = 0.0;
  for t in 0 .. n {
    if (rand() < 0.5) {
      var j: int = 0;
      while (j < 6) { acc = acc + 1.0; j = j + 1; }
    }
  }
  out[tid()] = acc;
}
|}
  in
  let candidates = Passes.Auto_detect.detect Passes.Auto_detect.default_params p in
  check_bool "no loop-merge on the constant-trip loop" true
    (List.for_all
       (fun (c : Passes.Auto_detect.candidate) -> c.kind <> Passes.Auto_detect.Loop_merge)
       candidates)

let test_auto_detect_skips_annotated () =
  let p = compile listing1_src in
  (* user hints present: detector must leave the function alone *)
  check_int "no candidates for annotated function" 0
    (List.length (Passes.Auto_detect.detect Passes.Auto_detect.default_params p))

let test_auto_install_no_overlap () =
  let p = compile listing1_src in
  Hashtbl.iter (fun _ (f : T.func) -> f.T.hints <- []) p.T.funcs;
  let candidates = Passes.Auto_detect.detect Passes.Auto_detect.default_params p in
  Passes.Auto_detect.install p candidates;
  let f = kernel_func p in
  (* overlapping candidates over the same loop nest collapse to one hint *)
  check_int "single hint installed" 1 (List.length f.T.hints);
  (* installed hints compile *)
  ignore (Passes.Specrecon.run p);
  Ir.Verifier.check_program_exn p

(* ---- wrapper-function idiom (§4.4) ---- *)

let test_interproc_wrapper_idiom () =
  (* "The programmer ... must move calls to extern functions into a
     wrapper function body which acts as the required reconvergence
     point. The wrapper may also be used for functions that are called
     from within multiple independent regions." Here [shade] is called
     from two independent regions via the wrapper; predicting the wrapper
     reconverges both. *)
  let src =
    {|
global out: float[4096];
func shade(x: float) -> float {
  var acc: float = x;
  var i: int = 0;
  while (i < 12) { acc = acc + sin(acc) * 0.5; i = i + 1; }
  return acc;
}
func shade_wrapper(x: float) -> float { return shade(x); }
kernel k(n: int) {
  var total: float = 0.0;
  predict func shade_wrapper;
  for i in 0 .. n {
    if ((lane() + i) % 2 == 0) {
      total = total + shade_wrapper(1.0);
    } else {
      total = total + shade_wrapper(2.0) * 0.5;
    }
  }
  out[tid()] = total;
}
|}
  in
  let config = { Simt.Config.default with Simt.Config.n_warps = 1 } in
  let baseline = Core.Runner.run_source ~config Core.Compile.baseline ~source:src ~args:[ T.I 8 ] in
  let spec = Core.Runner.run_source ~config Core.Compile.speculative ~source:src ~args:[ T.I 8 ] in
  check_int "wrapper hint applied" 1 (List.length spec.compiled.Core.Compile.interproc_applied);
  check_bool "fewer issues through the wrapper" true
    (spec.Core.Runner.metrics.Simt.Metrics.issues
    < baseline.Core.Runner.metrics.Simt.Metrics.issues);
  let dump (o : Core.Runner.outcome) = Simt.Memsys.dump o.Core.Runner.memory ~base:0 ~len:64 in
  check_bool "results identical" true (dump baseline = dump spec)

(* ---- hints inside device functions ---- *)

let test_hint_in_device_function () =
  (* The synchronization machinery is not kernel-specific: a label hint
     inside a device function compiles and behaves. *)
  let src =
    {|
global out: float[4096];
func walk(seed: float) -> float {
  var acc: float = seed;
  predict L1;
  var i: int = 0;
  while (i < 24) {
    if (randint(4) == 0) {
      L1:
      var j: int = 0;
      while (j < 12) { acc = acc + sin(acc) * 0.25; j = j + 1; }
    }
    i = i + 1;
  }
  return acc;
}
kernel k() { out[tid()] = walk(float(lane()) * 0.1); }
|}
  in
  let config = { Simt.Config.default with Simt.Config.n_warps = 1 } in
  let baseline = Core.Runner.run_source ~config Core.Compile.baseline ~source:src ~args:[] in
  let spec = Core.Runner.run_source ~config Core.Compile.speculative ~source:src ~args:[] in
  check_int "hint applied inside device function" 1
    (List.length spec.compiled.Core.Compile.applied);
  check Alcotest.string "applied in walk" "walk"
    (List.hd spec.compiled.Core.Compile.applied).Passes.Specrecon.in_func;
  let dump (o : Core.Runner.outcome) = Simt.Memsys.dump o.Core.Runner.memory ~base:0 ~len:64 in
  check_bool "results identical" true (dump baseline = dump spec);
  check_bool "efficiency improves" true
    (Core.Runner.efficiency spec > Core.Runner.efficiency baseline)

(* ---- region statistics ---- *)

let test_region_stats_shift () =
  (* §5.2: the efficiency gain lands in the common-code region; the rest
     of the program pays for it. *)
  let spec_workload = Workloads.Registry.find "pathtracer" in
  let measure options =
    Core.Region_stats.of_outcome (Core.Runner.run_spec options spec_workload)
  in
  let baseline = measure Core.Compile.baseline in
  let merged = measure Core.Compile.speculative in
  (* baseline compilation carries no hints: everything counts as other *)
  check_int "baseline has no region issues" 0 baseline.Core.Region_stats.region_issues;
  check_bool "region work exists under specrecon" true
    (merged.Core.Region_stats.region_issues > 0);
  check_bool "region runs above the old overall efficiency" true
    (Core.Region_stats.region_efficiency merged
    > Core.Region_stats.other_efficiency baseline)

(* ---- multiple concurrent predictions (§6) ---- *)

let test_multiple_predictions () =
  (* Two independent loops, each with its own hint: both compile, both
     deconflict, the kernel runs, and results match baseline. *)
  let src =
    {|
global out: float[4096];
kernel k(n: int) {
  var acc: float = 0.0;
  predict L1;
  for i in 0 .. n {
    if (randint(4) == 0) {
      L1:
      var j: int = 0;
      while (j < 10) { acc = acc + sin(acc) * 0.25; j = j + 1; }
    }
  }
  predict L2;
  for i2 in 0 .. n {
    if (randint(4) == 0) {
      L2:
      var j2: int = 0;
      while (j2 < 10) { acc = acc + cos(acc) * 0.25; j2 = j2 + 1; }
    }
  }
  out[tid()] = acc;
}
|}
  in
  let config = { Simt.Config.default with Simt.Config.n_warps = 1 } in
  let baseline = Core.Runner.run_source ~config Core.Compile.baseline ~source:src ~args:[ T.I 16 ] in
  let spec = Core.Runner.run_source ~config Core.Compile.speculative ~source:src ~args:[ T.I 16 ] in
  check_int "two hints applied" 2 (List.length spec.compiled.Core.Compile.applied);
  (match spec.compiled.Core.Compile.deconflict_report with
  | Some r -> check_int "no unresolved conflicts" 0 (List.length r.Passes.Deconflict.unresolved)
  | None -> Alcotest.fail "expected a deconfliction report");
  let dump (o : Core.Runner.outcome) = Simt.Memsys.dump o.Core.Runner.memory ~base:0 ~len:64 in
  check_bool "results identical" true (dump baseline = dump spec);
  check_bool "efficiency improves" true
    (Core.Runner.efficiency spec > Core.Runner.efficiency baseline)

let tests =
  [
    ( "passes.pdom",
      [
        Alcotest.test_case "inserts at ipdom" `Quick test_pdom_inserts_at_ipdom;
        Alcotest.test_case "skips uniform branches" `Quick test_pdom_skips_uniform;
      ] );
    ( "passes.specrecon",
      [
        Alcotest.test_case "figure 4(d) shape" `Quick test_specrecon_figure4_shape;
        Alcotest.test_case "threshold wait" `Quick test_specrecon_threshold;
        Alcotest.test_case "unknown label" `Quick test_specrecon_unknown_label;
      ] );
    ( "passes.deconflict",
      [
        Alcotest.test_case "dynamic" `Quick test_deconflict_dynamic;
        Alcotest.test_case "static" `Quick test_deconflict_static;
        Alcotest.test_case "same priority unresolved" `Quick
          test_deconflict_same_priority_unresolved;
        Alcotest.test_case "conflict deadlocks without it" `Quick
          test_conflict_deadlocks_without_deconfliction;
        Alcotest.test_case "yield recovers" `Quick test_yield_recovers_from_conflict;
      ] );
    ( "passes.interproc",
      [
        Alcotest.test_case "shape" `Quick test_interproc_shape;
        Alcotest.test_case "behaviour" `Quick test_interproc_behaviour;
        Alcotest.test_case "errors" `Quick test_interproc_errors;
      ] );
    ( "passes.auto_detect",
      [
        Alcotest.test_case "iteration delay" `Quick test_auto_detect_iteration_delay;
        Alcotest.test_case "loop merge" `Quick test_auto_detect_loop_merge;
        Alcotest.test_case "uniform trip skipped" `Quick test_auto_detect_skips_uniform_trip;
        Alcotest.test_case "annotated skipped" `Quick test_auto_detect_skips_annotated;
        Alcotest.test_case "install without overlap" `Quick test_auto_install_no_overlap;
      ] );
    ( "passes.multiple-predictions",
      [ Alcotest.test_case "two independent hints" `Quick test_multiple_predictions ] );
    ( "passes.extensions",
      [
        Alcotest.test_case "wrapper-function idiom" `Quick test_interproc_wrapper_idiom;
        Alcotest.test_case "hint in device function" `Quick test_hint_in_device_function;
        Alcotest.test_case "region stats shift" `Slow test_region_stats_shift;
      ] );
  ]
