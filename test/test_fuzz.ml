(* Regression gates for the fuzzing subsystem itself:

   - corpus replay: every minimized repro under corpus/ (found by
     srfuzz, root-caused, fixed, then promoted) must pass every
     differential oracle, forever;
   - fixed-seed smoke campaign: the tier-1 slice of a full
     [srfuzz --seed 42] run;
   - deconfliction rescue: the §3 conflicting-barrier deadlock fires
     when the deconflict stage is skipped and is resolved when it runs;
   - generator determinism: same seed and id, same program;
   - the non-ok verdicts known inputs reach, pinned to their exact text;
   - both fault plans, pinned to the traces their seeds produce. *)

module Oracle = Fuzz.Oracle
module C = Core.Compile

(* Compiles as the oracles do: lint findings come back as data. *)
let compile options ast = C.compile_ast { options with C.lint = false } ast

let undeconflicted = { C.speculative with C.deconflict = false }

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

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus holds at least 5 repros (found %d)" (List.length files))
    true
    (List.length files >= 5);
  List.iter
    (fun path ->
      let ast = Front.Parser.parse_string (read_file path) in
      match Oracle.check ast with
      | Oracle.Ok_run -> ()
      | v -> Alcotest.failf "%s: %a" path Oracle.pp_verdict v)
    files

let test_smoke_campaign () =
  let report = Fuzz.Driver.run ~seed:42 ~count:200 () in
  List.iter
    (fun (f : Fuzz.Driver.finding) ->
      Alcotest.failf "[%d] %s %s: %s" f.Fuzz.Driver.id
        (Fuzz.Gen.shape_name f.Fuzz.Driver.shape)
        (Oracle.kind_name f.Fuzz.Driver.violation.Oracle.kind)
        f.Fuzz.Driver.violation.Oracle.detail)
    report.Fuzz.Driver.findings;
  Alcotest.(check int) "every program accounted for" 200
    (report.Fuzz.Driver.passed + report.Fuzz.Driver.limited)

let test_generator_deterministic () =
  let a = Fuzz.Gen.generate ~seed:1729 3 and b = Fuzz.Gen.generate ~seed:1729 3 in
  Alcotest.(check bool) "same seed and id give the same program" true
    (Front.Pretty.equal_program a.Fuzz.Gen.ast b.Fuzz.Gen.ast)

let test_second_kernel_typed_calls () =
  (* Seed 8806 id 202 (and 244) once generated a second kernel whose
     Common_call body fed float arguments to an int-typed fn0 — a
     stage-failure in lower. The generator now only rolls Common_call
     for a second kernel when a float-typed device function exists.
     The pre-fix sources are permanently ill-typed, so the regression is
     pinned by regenerating rather than by a corpus file. *)
  List.iter
    (fun id ->
      let case = Fuzz.Gen.generate ~seed:8806 id in
      match Oracle.check case.Fuzz.Gen.ast with
      | Oracle.Ok_run -> ()
      | v -> Alcotest.failf "8806/%d: %a" id Oracle.pp_verdict v)
    [ 202; 244 ]

(* The §3 common-call conflict, as srfuzz minimized it (corpus id 18):
   threads that call [fn0] block on the interprocedural barrier waiting
   at the callee's entry, while the threads that skipped the call block
   on the caller's PDOM join — complementary waiting sets, so neither
   barrier can ever fire on its own. *)
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

let run_policy (staged : C.compiled) policy =
  let config = { Oracle.base_config with Simt.Config.policy } in
  Simt.Interp.run config staged.C.decoded ~args:[]
    ~init_memory:(Oracle.init_memory staged.C.program)

let test_deconflict_rescues_deadlock () =
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile undeconflicted ast in
  let deadlocked =
    List.filter
      (fun policy ->
        match run_policy raw policy with
        | _ -> false
        | exception Simt.Interp.Deadlock _ -> true)
      Oracle.policies
  in
  Alcotest.(check bool) "deadlocks under some policy without deconfliction" true
    (deadlocked <> []);
  let deconflicted = compile C.speculative ast in
  Alcotest.(check bool) "deconfliction resolved the conflict" true
    (match deconflicted.C.deconflict_report with
    | Some r -> r.Passes.Deconflict.resolutions <> []
    | None -> false);
  List.iter
    (fun policy ->
      match run_policy deconflicted policy with
      | _ -> ()
      | exception Simt.Interp.Deadlock msg -> Alcotest.failf "still deadlocks: %s" msg)
    Oracle.policies;
  match Oracle.check ast with
  | Oracle.Ok_run -> ()
  | v -> Alcotest.failf "full oracle matrix: %a" Oracle.pp_verdict v

(* ---- Non-ok verdicts ---- *)

let verdict v = Format.asprintf "%a" Oracle.pp_verdict v

let ill_typed_source =
  {|global out: int[64];
kernel k() {
  var x: int = 1.5;
  out[tid()] = x;
}
|}

(* A task loop coarsened by hand. Every store is to a distinct cell, but
   srrace cannot prove the loop-carried index injective, so the race
   finding survives a matrix that realizes no race: the one input that
   reaches the precision check run after the matrix. The verdict
   becomes ok once srrace sums per-thread loop counters. *)
let coarsened_source =
  {|
global out: int[128];
kernel k() {
  for c in 0 .. 2 {
    out[tid() + c * nthreads()] = c;
  }
}
|}

let test_non_ok_verdicts () =
  let check name want v = Alcotest.(check string) name want (verdict v) in
  let ill = Front.Parser.parse_string ill_typed_source in
  let stage_failure =
    "VIOLATION stage-failure: lower: 3:3: 'x' declared int but initialised with float"
  in
  check "ill-typed kernel, standard tier" stage_failure (Oracle.check ill);
  check "ill-typed kernel, repair tier" stage_failure (Oracle.check_repair ill);
  (* Budget exhaustion is Limit in every tier; the repair tier's PDOM
     reference run is where this program first runs out. *)
  let tight = (Fuzz.Gen.generate ~seed:42 0).Fuzz.Gen.ast in
  let limit = "limit (baseline/most-threads/k: issue budget 50 exhausted)" in
  check "budget, standard tier" limit (Oracle.check ~max_issues:50 tight);
  check "budget, repair tier" limit (Oracle.check_repair ~max_issues:50 tight);
  check "coarsened task loop"
    "VIOLATION race-spurious: no cell of the matrix realized a race, yet baseline: srrace: \
     category=write-write func=k block=bb2 line=5 global=? other_func=k other_line=5 \
     msg=threads of the same barrier interval may write the same cell ?[?] from this one store \
     fix=separate the writes with a full wait.barrier, or make the store index injective in tid \
     hint=insert-wait"
    (Oracle.check (Front.Parser.parse_string coarsened_source))

(* ---- Yield recovery (the fault-tolerance tentpole) ---- *)

let digest (r : Simt.Interp.result) = Simt.Memsys.digest r.Simt.Interp.memory

let run_yield (staged : C.compiled) policy yield_policy =
  let config =
    { Oracle.base_config with
      Simt.Config.policy;
      yield_on_stall = true;
      yield_policy }
  in
  Simt.Interp.run config staged.C.decoded ~args:[]
    ~init_memory:(Oracle.init_memory staged.C.program)

let test_yield_recovers_conflict () =
  (* The same checker-rejected conflicting placement that deadlocks in
     test_deconflict_rescues_deadlock must, with yield recovery on,
     complete under every (scheduler, victim-policy) pair with memory
     bit-identical to the PDOM baseline — graceful degradation instead
     of a stuck machine. *)
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile undeconflicted ast in
  Alcotest.(check bool) "the placement is checker-rejected" true (raw.C.lint_findings <> []);
  let baseline = compile C.baseline ast in
  let want = digest (run_policy baseline Simt.Config.Most_threads) in
  let yielded = ref 0 in
  List.iter
    (fun policy ->
      List.iter
        (fun yield_policy ->
          match run_yield raw policy yield_policy with
          | r ->
            yielded := !yielded + r.Simt.Interp.metrics.Simt.Metrics.yields;
            Alcotest.(check int)
              "all threads finish under yield recovery" (Fuzz.Gen.n_threads)
              r.Simt.Interp.metrics.Simt.Metrics.threads_finished;
            Alcotest.(check bool) "memory matches the PDOM baseline" true (digest r = want)
          | exception Simt.Interp.Deadlock msg ->
            Alcotest.failf "deadlocked despite yield recovery: %s" msg)
        [ Simt.Config.Oldest_arrival; Simt.Config.Most_waiters; Simt.Config.Lowest_slot ])
    Oracle.policies;
  Alcotest.(check bool) "recovery actually fired somewhere" true (!yielded > 0)

let test_yield_log_deterministic () =
  (* Victim selection is part of the deterministic machine: same config,
     same yield log (cycle, warp, slot, released lanes), for each victim
     policy. *)
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile undeconflicted ast in
  List.iter
    (fun yield_policy ->
      let a = run_yield raw Simt.Config.Most_threads yield_policy in
      let b = run_yield raw Simt.Config.Most_threads yield_policy in
      Alcotest.(check bool) "identical yield logs across reruns" true
        (a.Simt.Interp.yield_log = b.Simt.Interp.yield_log);
      Alcotest.(check bool) "identical issue counts across reruns" true
        (a.Simt.Interp.metrics.Simt.Metrics.issues = b.Simt.Interp.metrics.Simt.Metrics.issues))
    [ Simt.Config.Oldest_arrival; Simt.Config.Most_waiters; Simt.Config.Lowest_slot ]

let test_deadlock_report_names_cycle () =
  (* Satellite of the yield unit: the no-yield diagnostic must name the
     waits-for cycle so the report is actionable. *)
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile undeconflicted ast in
  let saw_deadlock =
    List.exists
      (fun policy ->
        match run_policy raw policy with
        | _ -> false
        | exception Simt.Interp.Deadlock msg ->
          let contains needle =
            let n = String.length needle and len = String.length msg in
            let rec go i = i + n <= len && (String.sub msg i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "report names the waits-for cycle" true
            (contains "waits-for cycle: b");
          Alcotest.(check bool) "report shows blocked sites" true (contains "blocked at");
          Alcotest.(check bool) "report suggests yield recovery" true (contains "--yield");
          true)
      Oracle.policies
  in
  Alcotest.(check bool) "some policy deadlocks without yield" true saw_deadlock

(* ---- Fault injection ---- *)

let divergent_source =
  {|
global out: float[64];
kernel k() {
  var acc: float = 0.0;
  for i in 0 .. 12 {
    if (rand() < 0.5) { acc = acc + rand(); } else { acc = acc - 1.0; }
  }
  out[tid()] = acc;
}
|}

(* The plan seed 1905 applies to [divergent_source]: a changed draw
   order in Simt.Faults or its plan core changes this text. *)
let simt_plan_1905 =
  {|fault stall step=23 warp=1 cycles=30
fault pick step=16 warp=1 index=0
fault stall step=176 warp=1 cycles=58
fault stall step=192 warp=0 cycles=57
fault stall step=340 warp=1 cycles=14
|}

let test_fault_trace_roundtrip_and_replay () =
  let ast = Front.Parser.parse_string divergent_source in
  let staged = compile C.speculative ast in
  let config = { Oracle.base_config with Simt.Config.yield_on_stall = true } in
  let faults = Simt.Faults.create ~seed:1905 in
  let a =
    Simt.Interp.run ~faults config staged.C.decoded ~args:[]
      ~init_memory:(Oracle.init_memory staged.C.program)
  in
  let events = Simt.Faults.events faults in
  Alcotest.(check string) "seed 1905 draws the same plan" simt_plan_1905
    (Simt.Faults.trace_to_string events);
  Alcotest.(check bool) "trace survives print/parse round trip" true
    (Simt.Faults.parse_trace (Simt.Faults.trace_to_string events) = events);
  (* Replaying the recorded trace reproduces the faulted run exactly. *)
  let replayed = Simt.Faults.replay events in
  let b =
    Simt.Interp.run ~faults:replayed config staged.C.decoded ~args:[]
      ~init_memory:(Oracle.init_memory staged.C.program)
  in
  Alcotest.(check bool) "replay applies the same faults" true
    (Simt.Faults.events replayed = events);
  Alcotest.(check bool) "replay reproduces the issue count" true
    (a.Simt.Interp.metrics.Simt.Metrics.issues = b.Simt.Interp.metrics.Simt.Metrics.issues);
  Alcotest.(check bool) "replay reproduces the memory image" true (digest a = digest b);
  (* And faults must not change what the program computes. *)
  let clean =
    Simt.Interp.run Oracle.base_config staged.C.decoded ~args:[]
      ~init_memory:(Oracle.init_memory staged.C.program)
  in
  Alcotest.(check bool) "faulted memory matches the unfaulted run" true (digest a = digest clean)

(* Seed 19's service plan over a fixed call sequence: 60 requests whose
   lines grow from 20 bytes, with a file opportunity after every third
   request. A changed draw order in Serve.Faults or its plan core
   changes this text. *)
let serve_plan_19 =
  {|fault corrupt step=0
fault fuel step=4 fuel=113
fault abort step=5
fault corrupt step=1
fault trunc step=6 keep=16
fault abort step=10
fault slow step=12 chunk=2
fault trunc step=14 keep=6
fault corrupt step=4
fault fuel step=18 fuel=148
fault slow step=20 chunk=2
fault slow step=21 chunk=6
fault slow step=23 chunk=3
fault slow step=24 chunk=7
fault slow step=25 chunk=2
fault abort step=26
fault corrupt step=8
fault fuel step=27 fuel=181
fault corrupt step=9
fault abort step=30
fault fuel step=31 fuel=50
fault slow step=32 chunk=7
fault corrupt step=10
fault slow step=33 chunk=4
fault fuel step=34 fuel=24
fault corrupt step=11
fault trunc step=38 keep=32
fault fuel step=40 fuel=184
fault fuel step=41 fuel=35
fault corrupt step=13
fault fuel step=46 fuel=122
fault corrupt step=15
fault fuel step=48 fuel=59
fault trunc step=49 keep=0
fault fuel step=51 fuel=190
fault fuel step=56 fuel=157
fault slow step=57 chunk=4
fault fuel step=58 fuel=90
|}

let serve_calls plan =
  List.init 60 (fun i ->
      let d = Serve.Faults.request_fault plan ~len:(20 + i) in
      if i mod 3 = 2 then ignore (Serve.Faults.file_fault plan);
      d)

let test_serve_fault_plan () =
  let plan = Serve.Faults.create ~seed:19 in
  let dispositions = serve_calls plan in
  let events = Serve.Faults.events plan in
  Alcotest.(check string) "seed 19 draws the same plan" serve_plan_19
    (Serve.Faults.trace_to_string events);
  let parsed = Serve.Faults.parse_trace (Serve.Faults.trace_to_string events) in
  Alcotest.(check bool) "trace survives print/parse round trip" true (parsed = events);
  let replayed = Serve.Faults.replay parsed in
  Alcotest.(check bool) "replay gives the same dispositions" true
    (serve_calls replayed = dispositions);
  Alcotest.(check bool) "replay applies the same faults" true
    (Serve.Faults.events replayed = events);
  (* A recorded truncation replayed against a shorter line keeps at most
     all but its last byte, and the clamped cut is what gets recorded. *)
  let short = Serve.Faults.replay (Serve.Faults.parse_trace "fault trunc step=0 keep=16\n") in
  Alcotest.(check bool) "replayed truncation clamps to the line" true
    (Serve.Faults.request_fault short ~len:10 = Serve.Faults.Truncated 9);
  Alcotest.(check string) "the clamped cut is recorded" "fault trunc step=0 keep=9\n"
    (Serve.Faults.trace_to_string (Serve.Faults.events short))

let multi_kernel_source =
  {|
global out: int[64];
global datai: int[64];

kernel k() {
  out[tid()] = datai[tid()] * 2;
}

kernel k2(bias: int) {
  if (datai[tid()] > 0) {
    out[tid()] = datai[tid()] + bias;
  } else {
    out[tid()] = bias;
  }
}
|}

let test_multi_kernel_program () =
  (* Multi-kernel translation units (a ROADMAP item): both kernels are
     lowered side by side; the entry selector picks which one runs. *)
  let ast = Front.Parser.parse_string multi_kernel_source in
  let staged = compile C.speculative ast in
  let kernels =
    List.map (fun (f : Ir.Linear.finfo) -> f.Ir.Linear.fname) staged.C.linear.Ir.Linear.kernels
  in
  Alcotest.(check (list string)) "both kernels listed in order" [ "k"; "k2" ] kernels;
  let run entry args =
    Simt.Interp.run ~entry Oracle.base_config staged.C.decoded ~args
      ~init_memory:(Oracle.init_memory staged.C.program)
  in
  let a = run "k" [] in
  let b = run "k2" [ Ir.Types.I 7 ] in
  Alcotest.(check bool) "the two kernels compute different images" true (digest a <> digest b);
  (match run "nope" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown entry must be rejected");
  match Oracle.check ast with
  | Oracle.Ok_run -> ()
  | v -> Alcotest.failf "multi-kernel program fails the oracle matrix: %a" Oracle.pp_verdict v

let test_chaos_campaign () =
  (* A fixed-seed chaos slice: every clean program must survive one
     fault plan per program with zero violations (the chaos-smoke alias
     runs a second slice at another seed through the srfuzz binary). *)
  let report = Fuzz.Driver.run ~seed:1234 ~count:40 ~chaos:1 () in
  List.iter
    (fun (f : Fuzz.Driver.finding) ->
      Alcotest.failf "[%d] %s %s: %s" f.Fuzz.Driver.id
        (Fuzz.Gen.shape_name f.Fuzz.Driver.shape)
        (Oracle.kind_name f.Fuzz.Driver.violation.Oracle.kind)
        f.Fuzz.Driver.violation.Oracle.detail)
    report.Fuzz.Driver.findings;
  Alcotest.(check int) "every program accounted for" 40
    (report.Fuzz.Driver.passed + report.Fuzz.Driver.limited)

let tests =
  [
    ( "fuzz.oracles",
      [
        Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "second-kernel calls well-typed" `Quick
          test_second_kernel_typed_calls;
        Alcotest.test_case "deconfliction rescues common-call deadlock" `Quick
          test_deconflict_rescues_deadlock;
        Alcotest.test_case "multi-kernel programs" `Quick test_multi_kernel_program;
        Alcotest.test_case "non-ok verdicts pinned" `Quick test_non_ok_verdicts;
        Alcotest.test_case "corpus replay" `Slow test_corpus_replay;
        Alcotest.test_case "smoke campaign (seed 42)" `Slow test_smoke_campaign;
      ] );
    ( "fuzz.chaos",
      [
        Alcotest.test_case "yield recovery completes conflicting placements" `Quick
          test_yield_recovers_conflict;
        Alcotest.test_case "yield log deterministic per victim policy" `Quick
          test_yield_log_deterministic;
        Alcotest.test_case "deadlock report names the waits-for cycle" `Quick
          test_deadlock_report_names_cycle;
        Alcotest.test_case "fault trace round-trips and replays" `Quick
          test_fault_trace_roundtrip_and_replay;
        Alcotest.test_case "serve fault plan pinned, round-trips and replays" `Quick
          test_serve_fault_plan;
        Alcotest.test_case "chaos campaign (seed 1234)" `Slow test_chaos_campaign;
      ] );
  ]
