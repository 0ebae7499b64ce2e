(* Tests for the SIMT simulator: value operations, the memory system,
   the convergence-barrier unit, metrics, and the interpreter (execution
   semantics, divergence behaviour, barrier semantics, error handling,
   determinism). *)

module T = Ir.Types
module B = Ir.Builder
module Mask = Support.Mask

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---- Valops ---- *)

let test_valops_int () =
  let open T in
  check_bool "add" true (Simt.Valops.binop Add (I 2) (I 3) = I 5);
  check_bool "div" true (Simt.Valops.binop Div (I 7) (I 2) = I 3);
  check_bool "rem" true (Simt.Valops.binop Rem (I 7) (I 2) = I 1);
  check_bool "min" true (Simt.Valops.binop Min (I 7) (I 2) = I 2);
  check_bool "max" true (Simt.Valops.binop Max (I 7) (I 2) = I 7);
  check_bool "lt true" true (Simt.Valops.binop Lt (I 1) (I 2) = I 1);
  check_bool "lt false" true (Simt.Valops.binop Lt (I 2) (I 1) = I 0);
  (match Simt.Valops.binop Div (I 1) (I 0) with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "expected Division_by_zero");
  match Simt.Valops.binop Add (I 1) (F 2.0) with
  | exception Simt.Valops.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error"

let test_valops_float () =
  let open T in
  check_bool "fadd" true (Simt.Valops.binop Fadd (F 1.5) (F 2.5) = F 4.0);
  check_bool "fmax" true (Simt.Valops.binop Fmax (F 1.5) (F 2.5) = F 2.5);
  check_bool "fge" true (Simt.Valops.binop Fge (F 2.5) (F 2.5) = I 1);
  check_bool "sqrt" true (Simt.Valops.unop Sqrt (F 4.0) = F 2.0);
  check_bool "itof" true (Simt.Valops.unop Itof (I 3) = F 3.0);
  check_bool "ftoi" true (Simt.Valops.unop Ftoi (F 3.7) = I 3);
  check_bool "not" true (Simt.Valops.unop Not (I 0) = I 1);
  match Simt.Valops.unop Sqrt (I 4) with
  | exception Simt.Valops.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error"

let test_valops_truthy () =
  let open T in
  check_bool "zero false" false (Simt.Valops.truthy (I 0));
  check_bool "nonzero true" true (Simt.Valops.truthy (I (-3)));
  check_bool "0.0 false" false (Simt.Valops.truthy (F 0.0));
  check_bool "float true" true (Simt.Valops.truthy (F 0.5))

(* ---- Memsys ---- *)

let mem_config = Simt.Config.default.Simt.Config.memory

let test_memsys_rw () =
  let m = Simt.Memsys.create mem_config ~size:16 in
  Simt.Memsys.write m 3 (T.F 1.5);
  check_bool "read back" true (Simt.Memsys.read m 3 = T.F 1.5);
  check_bool "default zero" true (Simt.Memsys.read m 0 = T.I 0);
  check_int "size" 16 (Simt.Memsys.size m);
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected bounds error"
  in
  invalid (fun () -> Simt.Memsys.read m 16);
  invalid (fun () -> Simt.Memsys.read m (-1));
  invalid (fun () -> Simt.Memsys.write m 99 (T.I 0));
  invalid (fun () -> Simt.Memsys.dump m ~base:10 ~len:10)

let test_memsys_coalescing () =
  let m = Simt.Memsys.create mem_config ~size:4096 in
  (* all lanes in one 16-word line: one transaction, base latency *)
  let coalesced = Simt.Memsys.access_costn m ~addrs:(Array.init 16 Fun.id) ~n:16 in
  check_int "coalesced cost" mem_config.Simt.Config.base_latency coalesced;
  (* 32 lanes hitting 32 distinct lines: 31 extra transactions *)
  let lines = Array.init 32 (fun i -> i * 16) in
  let scattered = Simt.Memsys.access_costn m ~addrs:lines ~n:32 in
  check_int "scattered cost"
    (mem_config.Simt.Config.base_latency + (31 * mem_config.Simt.Config.per_transaction))
    scattered;
  (* only the first [n] addresses are touched *)
  check_int "empty access free" 0 (Simt.Memsys.access_costn m ~addrs:lines ~n:0);
  let stats = Simt.Memsys.stats m in
  check_int "transactions counted" (1 + 32) stats.Simt.Memsys.transactions

let test_memsys_cache () =
  let config =
    { mem_config with Simt.Config.cache = Some { Simt.Config.sets = 4; ways = 2; hit_latency = 5 } }
  in
  let m = Simt.Memsys.create config ~size:4096 in
  let touch addr = Simt.Memsys.access_costn m ~addrs:[| addr |] ~n:1 in
  let miss_cost = touch 0 in
  check_int "first touch misses" config.Simt.Config.base_latency miss_cost;
  let hit_cost = touch 0 in
  check_int "second touch hits" 5 hit_cost;
  (* fill the set until line 0 is evicted: set index = line mod 4, so
     lines 32/64 (i.e. addresses 512, 1024) map to set 0 as line 0 does *)
  ignore (touch 512);
  ignore (touch 1024);
  let evicted = touch 0 in
  check_int "evicted misses again" config.Simt.Config.base_latency evicted;
  let stats = Simt.Memsys.stats m in
  check_bool "hits and misses recorded" true
    (stats.Simt.Memsys.hits >= 1 && stats.Simt.Memsys.misses >= 3)

(* ---- Barrier unit ---- *)

let test_barrier_basic_fire () =
  let u = Simt.Barrier_unit.create ~n_barriers:2 ~warp_size:4 in
  List.iter (fun l -> Simt.Barrier_unit.join u 0 l) [ 0; 1; 2 ];
  check_bool "participant" true (Simt.Barrier_unit.is_participant u 0 1);
  check_bool "lane 3 not in" false (Simt.Barrier_unit.is_participant u 0 3);
  Simt.Barrier_unit.block u 0 0 ~now:0 ~threshold:(-1);
  check_bool "no fire yet" true (Simt.Barrier_unit.fired u 0 = None);
  check_int "one waiting" 1 (Mask.count (Simt.Barrier_unit.waiting u 0));
  Simt.Barrier_unit.block u 0 1 ~now:0 ~threshold:(-1);
  Simt.Barrier_unit.block u 0 2 ~now:0 ~threshold:(-1);
  (match Simt.Barrier_unit.fired u 0 with
  | Some released -> check_int "all released" 3 (Mask.count released)
  | None -> Alcotest.fail "expected fire");
  check_bool "participants cleared" true (Mask.is_empty (Simt.Barrier_unit.participants u 0))

let test_barrier_cancel_completes () =
  let u = Simt.Barrier_unit.create ~n_barriers:1 ~warp_size:4 in
  List.iter (fun l -> Simt.Barrier_unit.join u 0 l) [ 0; 1 ];
  Simt.Barrier_unit.block u 0 0 ~now:0 ~threshold:(-1);
  check_bool "waiting on lane 1" true (Simt.Barrier_unit.fired u 0 = None);
  Simt.Barrier_unit.cancel u 0 1;
  match Simt.Barrier_unit.fired u 0 with
  | Some released -> check_int "lane 0 released" 1 (Mask.count released)
  | None -> Alcotest.fail "cancel should complete the barrier"

let test_barrier_threshold () =
  let u = Simt.Barrier_unit.create ~n_barriers:1 ~warp_size:8 in
  List.iter (fun l -> Simt.Barrier_unit.join u 0 l) [ 0; 1; 2; 3; 4; 5 ];
  Simt.Barrier_unit.block u 0 0 ~now:0 ~threshold:3;
  Simt.Barrier_unit.block u 0 1 ~now:0 ~threshold:3;
  check_bool "below threshold holds" true (Simt.Barrier_unit.fired u 0 = None);
  Simt.Barrier_unit.block u 0 2 ~now:0 ~threshold:3;
  (match Simt.Barrier_unit.fired u 0 with
  | Some released ->
    check_int "exactly the waiters released" 3 (Mask.count released);
    (* the rest still participate *)
    check_int "remaining participants" 3 (Mask.count (Simt.Barrier_unit.participants u 0))
  | None -> Alcotest.fail "threshold should fire");
  (* threshold 0 releases immediately *)
  Simt.Barrier_unit.block u 0 4 ~now:0 ~threshold:0;
  match Simt.Barrier_unit.fired u 0 with
  | Some released -> check_int "solo release" 1 (Mask.count released)
  | None -> Alcotest.fail "threshold 0 should fire at once"

let test_barrier_withdraw () =
  let u = Simt.Barrier_unit.create ~n_barriers:3 ~warp_size:4 in
  Simt.Barrier_unit.join u 0 0;
  Simt.Barrier_unit.join u 2 0;
  Simt.Barrier_unit.join u 2 1;
  let affected = Simt.Barrier_unit.withdraw_lane u 0 in
  check (Alcotest.list Alcotest.int) "withdrawn from both" [ 0; 2 ] affected;
  check_bool "gone from b2" false (Simt.Barrier_unit.is_participant u 2 0);
  check_bool "lane 1 remains" true (Simt.Barrier_unit.is_participant u 2 1)

let test_barrier_threshold_withdraw_completes () =
  (* A pending soft (threshold) wait must full-fire when withdrawals
     shrink the participation mask down to exactly the blocked lanes,
     even though the threshold itself is never met. *)
  let u = Simt.Barrier_unit.create ~n_barriers:1 ~warp_size:8 in
  List.iter (fun l -> Simt.Barrier_unit.join u 0 l) [ 0; 1; 2; 3 ];
  Simt.Barrier_unit.block u 0 0 ~now:0 ~threshold:3;
  Simt.Barrier_unit.block u 0 1 ~now:0 ~threshold:3;
  check_bool "2 of 4 below threshold 3" true (Simt.Barrier_unit.fired u 0 = None);
  ignore (Simt.Barrier_unit.withdraw_lane u 2);
  check_bool "3 participants, 2 blocked: still held" true (Simt.Barrier_unit.fired u 0 = None);
  ignore (Simt.Barrier_unit.withdraw_lane u 3);
  (match Simt.Barrier_unit.fired u 0 with
  | Some released -> check_bool "remaining blocked lanes released" true
      (Mask.to_list released = [ 0; 1 ])
  | None -> Alcotest.fail "withdrawals should complete the pending threshold wait");
  check_bool "participants cleared by full fire" true
    (Mask.is_empty (Simt.Barrier_unit.participants u 0))

let test_barrier_cancel_during_threshold () =
  (* BREAK while a BSYNC.TH is pending: cancels shrink participation
     until the full-fire condition takes over. *)
  let u = Simt.Barrier_unit.create ~n_barriers:1 ~warp_size:8 in
  List.iter (fun l -> Simt.Barrier_unit.join u 0 l) [ 0; 1; 2; 3; 4 ];
  Simt.Barrier_unit.block u 0 0 ~now:0 ~threshold:4;
  Simt.Barrier_unit.block u 0 1 ~now:0 ~threshold:4;
  Simt.Barrier_unit.cancel u 0 2;
  Simt.Barrier_unit.cancel u 0 3;
  check_bool "2 blocked of 3 left: held" true (Simt.Barrier_unit.fired u 0 = None);
  Simt.Barrier_unit.cancel u 0 4;
  match Simt.Barrier_unit.fired u 0 with
  | Some released ->
    check_bool "blocked lanes released on last cancel" true (Mask.to_list released = [ 0; 1 ])
  | None -> Alcotest.fail "cancel should complete the pending threshold wait"

let test_barrier_force_release () =
  (* The yield-recovery primitive: release the blocked lanes regardless
     of the fire condition, with threshold-fire bookkeeping (released
     lanes leave the participation mask, the rest stay). *)
  let u = Simt.Barrier_unit.create ~n_barriers:2 ~warp_size:8 in
  List.iter (fun l -> Simt.Barrier_unit.join u 0 l) [ 0; 1; 2; 3 ];
  Simt.Barrier_unit.block u 0 1 ~now:9 ~threshold:(-1);
  Simt.Barrier_unit.block u 0 0 ~now:5 ~threshold:(-1);
  check_bool "oldest arrival is the earliest stamp" true
    (Simt.Barrier_unit.oldest_arrival u 0 = Some 5);
  (match Simt.Barrier_unit.force_release u 0 with
  | Some released -> check_bool "releases exactly the waiters" true
      (Mask.to_list released = [ 0; 1 ])
  | None -> Alcotest.fail "force_release with waiters must release them");
  check_bool "released lanes left the participation mask" true
    (Mask.to_list (Simt.Barrier_unit.participants u 0) = [ 2; 3 ]);
  check_bool "nothing waiting afterwards" true
    (Mask.is_empty (Simt.Barrier_unit.waiting u 0));
  check_bool "oldest arrival cleared" true (Simt.Barrier_unit.oldest_arrival u 0 = None);
  check_bool "idempotent on an idle barrier" true (Simt.Barrier_unit.force_release u 0 = None);
  check_bool "no-op on an unused barrier" true (Simt.Barrier_unit.force_release u 1 = None)

let test_barrier_errors () =
  let u = Simt.Barrier_unit.create ~n_barriers:1 ~warp_size:4 in
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Simt.Barrier_unit.join u 5 0);
  invalid (fun () -> Simt.Barrier_unit.join u 0 9);
  (* blocking a non-participant is a simulator-usage bug *)
  invalid (fun () -> Simt.Barrier_unit.block u 0 0 ~now:0 ~threshold:(-1))

(* ---- Metrics ---- *)

let test_metrics () =
  let m = Simt.Metrics.create ~warp_size:32 in
  check (Alcotest.float 1e-9) "empty efficiency" 0.0 (Simt.Metrics.simt_efficiency m);
  m.Simt.Metrics.issues <- 10;
  m.Simt.Metrics.active_sum <- 160;
  m.Simt.Metrics.cycles <- 20;
  check (Alcotest.float 1e-9) "efficiency" 0.5 (Simt.Metrics.simt_efficiency m);
  check (Alcotest.float 1e-9) "avg active" 16.0 (Simt.Metrics.avg_active m);
  check (Alcotest.float 1e-9) "ipc" 0.5 (Simt.Metrics.ipc m)

(* ---- Interp ---- *)

let small_config = { Simt.Config.default with Simt.Config.n_warps = 1 }

let run_src ?(config = small_config) ?(args = []) src =
  let compiled = Core.Compile.compile Core.Compile.baseline ~source:src in
  Simt.Interp.run config compiled.Core.Compile.decoded ~args ~init_memory:(fun _ -> ())

let out_cells (r : Simt.Interp.result) n = Simt.Memsys.dump r.Simt.Interp.memory ~base:0 ~len:n

let test_interp_tid_store () =
  let r = run_src "global out: int[64];\nkernel k() { out[tid()] = tid() * 2; }" in
  let cells = out_cells r 32 in
  Array.iteri
    (fun i v -> check_bool (Printf.sprintf "cell %d" i) true (v = T.I (i * 2)))
    cells;
  check_int "all finished" 32 r.Simt.Interp.metrics.Simt.Metrics.threads_finished

let test_interp_full_efficiency_when_uniform () =
  let r = run_src "global out: int[64];\nkernel k() { var s: int = 0; for i in 0 .. 10 { s = s + i; } out[tid()] = s; }" in
  check (Alcotest.float 0.001) "uniform kernel runs at 100%" 1.0
    (Simt.Metrics.simt_efficiency r.Simt.Interp.metrics)

let test_interp_divergence_reduces_efficiency () =
  let r =
    run_src
      {|
global out: int[64];
kernel k() {
  var s: int = 0;
  if (lane() % 2 == 0) {
    for i in 0 .. 20 { s = s + i; }
  } else {
    for i in 0 .. 20 { s = s - i; }
  }
  out[tid()] = s;
}
|}
  in
  let eff = Simt.Metrics.simt_efficiency r.Simt.Interp.metrics in
  check_bool "divergent kernel below 90%" true (eff < 0.9);
  check_bool "but above 40%" true (eff > 0.4)

let test_interp_args () =
  let r = run_src ~args:[ T.I 5; T.F 1.5 ]
      "global out: float[64];\nkernel k(n: int, x: float) { out[tid()] = float(n) * x; }"
  in
  check_bool "arg value" true ((out_cells r 1).(0) = T.F 7.5)

let test_interp_arity_error () =
  let compiled =
    Core.Compile.compile Core.Compile.baseline ~source:"kernel k(n: int) { let x = n; }"
  in
  match
    Simt.Interp.run small_config compiled.Core.Compile.decoded ~args:[] ~init_memory:(fun _ -> ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity error"

(* Each runtime fault is raised with its exact text: the wrapper names
   the pc and warp, randint its lane context, and a type error keeps
   Valops's message. *)
let test_interp_runtime_errors () =
  let expect_error name run want =
    match run () with
    | exception Simt.Interp.Runtime_error msg -> check Alcotest.string name want msg
    | _ -> Alcotest.failf "%s: expected a runtime error" name
  in
  let src s () = run_src s in
  expect_error "out-of-bounds store"
    (src "global out: int[4];\nkernel k() { out[tid() + 100] = 1; }")
    "fault at pc 3 (warp 0): Memsys.write: address 100 out of bounds [0, 4)";
  expect_error "division by zero"
    (src "global out: int[64];\nkernel k() { out[tid()] = 1 / (tid() - tid()); }")
    "division by zero at pc 5 (warp 0)";
  expect_error "randint(0)"
    (src "global out: int[64];\nkernel k() { out[tid()] = randint(0); }")
    "randint bound 0 not positive (warp 0 lane 0 tid 0 pc 2)";
  (* A float plus an int: the [Add] superop's int/int arm misses and the
     generic Valops fallback raises. *)
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let d = B.fresh_reg f in
  B.append f f.T.entry (T.Bin (T.Add, d, T.Imm (T.F 1.5), T.Imm (T.I 2)));
  B.set_term f f.T.entry T.Exit;
  let dp = Ir.Decoded.decode (Ir.Linear.linearize p) in
  expect_error "type error"
    (fun () -> Simt.Interp.run small_config dp ~args:[] ~init_memory:(fun _ -> ()))
    "type error at pc 0 (warp 0): add applied to 0x1.8p+0, 2"

(* Never terminates: [i] counts down from 0. *)
let endless_source =
  "global out: int[64];\nkernel k() { var i: int = 0; while (i < 1) { i = i - 1; } out[tid()] = i; }"

let test_interp_runaway () =
  let config = { small_config with Simt.Config.max_issues = 1000 } in
  match run_src ~config endless_source with
  | exception Simt.Interp.Out_of_budget (Simt.Interp.Issue_cap, _) -> ()
  | _ -> Alcotest.fail "expected runaway protection to trigger"

(* One budget binds a run: fuel when it is set and below the issue cap,
   else the cap, which wins a tie. *)
let test_interp_binding_budget () =
  let expect name ~max_issues ~fuel want =
    let config = { small_config with Simt.Config.max_issues; fuel } in
    match run_src ~config endless_source with
    | exception Simt.Interp.Out_of_budget (budget, msg) ->
      check_bool name true ((budget, msg) = want)
    | _ -> Alcotest.failf "%s: no budget ran out" name
  in
  let cap n = (Simt.Interp.Issue_cap, Printf.sprintf "issue budget %d exhausted" n) in
  expect "cap alone" ~max_issues:1000 ~fuel:0 (cap 1000);
  expect "fuel below the cap" ~max_issues:1000 ~fuel:50 (Simt.Interp.Fuel, "fuel 50 exhausted");
  expect "the cap wins a tie" ~max_issues:50 ~fuel:50 (cap 50);
  expect "cap below fuel" ~max_issues:50 ~fuel:1000 (cap 50)

let test_interp_determinism () =
  let src =
    {|
global out: float[64];
kernel k() {
  var acc: float = 0.0;
  for i in 0 .. 10 { acc = acc + rand(); }
  out[tid()] = acc;
}
|}
  in
  let a = run_src src and b = run_src src in
  check_bool "same seed, same results" true (out_cells a 32 = out_cells b 32);
  check_int "same issue count" a.Simt.Interp.metrics.Simt.Metrics.issues
    b.Simt.Interp.metrics.Simt.Metrics.issues;
  let other_seed = { small_config with Simt.Config.seed = 7 } in
  let c = run_src ~config:other_seed src in
  check_bool "different seed, different results" true (out_cells a 32 <> out_cells c 32)

let test_interp_policies_same_results () =
  let src =
    {|
global out: float[64];
kernel k() {
  var acc: float = 0.0;
  for i in 0 .. 8 {
    if (rand() < 0.5) { acc = acc + 1.0; } else { acc = acc - 1.0; }
  }
  out[tid()] = acc;
}
|}
  in
  let with_policy policy = run_src ~config:{ small_config with Simt.Config.policy } src in
  let a = with_policy Simt.Config.Most_threads in
  let b = with_policy Simt.Config.Lowest_pc in
  let c = with_policy Simt.Config.Round_robin in
  check_bool "most-threads = lowest-pc results" true (out_cells a 32 = out_cells b 32);
  check_bool "most-threads = round-robin results" true (out_cells a 32 = out_cells c 32)

let test_interp_rr_state_scoped () =
  (* Round_robin is the only policy allowed to touch the rotation cursor
     (rr_pc); regression guard for the bug where every policy updated it.
     The cursor is per-launch state, so the observable contract is:
     (a) a policy's full issue schedule is a function of that policy
     alone — running other policies before/after it, in any order within
     one process, must not perturb it — and (b) Round_robin genuinely
     rotates (its schedule differs from Lowest_pc's on a divergent
     workload), so (a) is not vacuous. *)
  let src =
    {|
global out: float[64];
kernel k() {
  var acc: float = 0.0;
  for i in 0 .. 6 {
    if (rand() < 0.5) { acc = acc + 1.0; } else { acc = acc - rand(); }
  }
  out[tid()] = acc;
}
|}
  in
  let compiled = Core.Compile.compile Core.Compile.baseline ~source:src in
  let trace policy =
    let events = ref [] in
    let tracer (e : Simt.Interp.issue_event) =
      events := (e.Simt.Interp.at_cycle, e.Simt.Interp.warp, e.Simt.Interp.pc, e.Simt.Interp.active) :: !events
    in
    ignore
      (Simt.Interp.run ~tracer
         { small_config with Simt.Config.policy }
         compiled.Core.Compile.decoded ~args:[] ~init_memory:(fun _ -> ()));
    List.rev !events
  in
  let lowest_first = trace Simt.Config.Lowest_pc in
  let round_robin = trace Simt.Config.Round_robin in
  let most_threads = trace Simt.Config.Most_threads in
  let lowest_again = trace Simt.Config.Lowest_pc in
  let most_again = trace Simt.Config.Most_threads in
  check_bool "lowest-pc schedule unperturbed by other policies" true
    (lowest_first = lowest_again);
  check_bool "most-threads schedule unperturbed by other policies" true
    (most_threads = most_again);
  check_bool "round-robin actually rotates" true (round_robin <> lowest_first)

let test_interp_no_spontaneous_merge () =
  (* Two sides of a divergent branch run the same uniform loop; without a
     barrier they must NOT merge (group identities stay apart), so
     efficiency stays near 50%. This pins down the Volta-faithful
     convergence model. *)
  let src =
    {|
global out: float[64];
kernel k() {
  var acc: float = float(lane());
  if (lane() % 2 == 0) {
    var i: int = 0;
    while (i < 32) { acc = acc + 1.0; i = i + 1; }
  } else {
    var j: int = 0;
    while (j < 32) { acc = acc + 1.0; j = j + 1; }
  }
  out[tid()] = acc;
}
|}
  in
  let r = run_src src in
  let eff = Simt.Metrics.simt_efficiency r.Simt.Interp.metrics in
  check_bool "diverged halves never exceed ~55%" true (eff < 0.55)

let test_interp_barrier_reconverges () =
  (* Hand-inserted convergence barrier: join before the divergent branch,
     wait at the join point; efficiency recovers. *)
  let p = Front.Lower.compile_source
      {|
global out: float[64];
kernel k() {
  var acc: float = float(lane());
  if (lane() % 2 == 0) { acc = acc + 1.0; } else { acc = acc - 1.0; }
  var i: int = 0;
  while (i < 32) { acc = acc + 1.0; i = i + 1; }
  out[tid()] = acc;
}
|}
  in
  (* compile twice: no sync vs baseline PDOM *)
  let run_program program =
    let decoded = Ir.Decoded.decode (Ir.Linear.linearize program) in
    Simt.Interp.run small_config decoded ~args:[] ~init_memory:(fun _ -> ())
  in
  let no_sync = run_program p in
  let p2 = Front.Lower.compile_source
      {|
global out: float[64];
kernel k() {
  var acc: float = float(lane());
  if (lane() % 2 == 0) { acc = acc + 1.0; } else { acc = acc - 1.0; }
  var i: int = 0;
  while (i < 32) { acc = acc + 1.0; i = i + 1; }
  out[tid()] = acc;
}
|}
  in
  let divergence = Analysis.Divergence.run p2 in
  ignore (Passes.Pdom_sync.run p2 divergence);
  let with_sync = run_program p2 in
  let eff_no = Simt.Metrics.simt_efficiency no_sync.Simt.Interp.metrics in
  let eff_yes = Simt.Metrics.simt_efficiency with_sync.Simt.Interp.metrics in
  check_bool "PDOM reconvergence recovers efficiency" true (eff_yes > eff_no +. 0.2);
  (* and results agree *)
  check_bool "results agree" true (out_cells no_sync 32 = out_cells with_sync 32)

let test_tracer_consistency () =
  (* The tracer sees exactly one event per issue, and the active-lane
     totals reconstruct the SIMT-efficiency numerator. *)
  let src =
    {|
global out: float[64];
kernel k() {
  var acc: float = 0.0;
  for i in 0 .. 6 {
    if (rand() < 0.5) { acc = acc + 1.0; }
  }
  out[tid()] = acc;
}
|}
  in
  let compiled = Core.Compile.compile Core.Compile.baseline ~source:src in
  let issues = ref 0 and active = ref 0 in
  let result =
    Simt.Interp.run small_config compiled.Core.Compile.decoded
      ~tracer:(fun e ->
        incr issues;
        active := !active + List.length e.Simt.Interp.active;
        (* lanes are ascending and within the warp *)
        let rec ascending = function
          | a :: (b :: _ as rest) -> a < b && ascending rest
          | [ _ ] | [] -> true
        in
        if not (ascending e.Simt.Interp.active) then Alcotest.fail "lanes not ascending";
        if e.Simt.Interp.warp <> 0 then Alcotest.fail "single-warp launch saw another warp")
      ~args:[] ~init_memory:(fun _ -> ())
  in
  check_int "one event per issue" result.Simt.Interp.metrics.Simt.Metrics.issues !issues;
  check_int "active sum matches" result.Simt.Interp.metrics.Simt.Metrics.active_sum !active

let test_count_table () =
  (* The run's count table against one traced launch of a registry cell
     with an interprocedural hint, so the profile spans two functions and
     the region split has both sides. The tracer's events are the
     reference for both folds over the table: the block profile credits
     each block the lanes issued at its first pc, and the region split
     sorts every issue by whether its block lies in a hint's region. *)
  let spec = Workloads.Registry.find "common-call" in
  let compiled =
    Core.Compile.compile Core.Compile.speculative ~source:spec.Workloads.Spec.source
  in
  let locs = compiled.Core.Compile.decoded.Ir.Decoded.linear.Ir.Linear.locs in
  let in_region = Core.Region_stats.in_region compiled in
  let profile = Analysis.Profile.empty () in
  let split = Array.make 4 0 (* region issues, region lanes, other issues, other lanes *) in
  let tracer (e : Simt.Interp.issue_event) =
    let n = List.length e.Simt.Interp.active in
    let { Ir.Linear.in_func; in_block } = e.Simt.Interp.where in
    if e.Simt.Interp.pc = 0 || locs.(e.Simt.Interp.pc - 1) <> e.Simt.Interp.where then
      Analysis.Profile.record profile ~func:in_func ~block:in_block ~count:n;
    let side = if in_region ~func:in_func ~block:in_block then 0 else 2 in
    split.(side) <- split.(side) + 1;
    split.(side + 1) <- split.(side + 1) + n
  in
  let r =
    Simt.Interp.run ~tracer
      (spec.Workloads.Spec.tweak_config Simt.Config.default)
      compiled.Core.Compile.decoded ~args:spec.Workloads.Spec.args
      ~init_memory:(spec.Workloads.Spec.init compiled.Core.Compile.program)
  in
  let outcome =
    {
      Core.Runner.compiled;
      metrics = r.Simt.Interp.metrics;
      pc_issues = r.Simt.Interp.pc_issues;
      pc_lanes = r.Simt.Interp.pc_lanes;
      memory = r.Simt.Interp.memory;
      check = Ok ();
    }
  in
  let pp_profile = Format.asprintf "%a" Analysis.Profile.pp in
  check Alcotest.string "block profile" (pp_profile profile)
    (pp_profile (Core.Runner.profile outcome));
  let stats = Core.Region_stats.of_outcome outcome in
  check_int "region issues" split.(0) stats.Core.Region_stats.region_issues;
  check_int "region lanes" split.(1) stats.Core.Region_stats.region_active;
  check_int "other issues" split.(2) stats.Core.Region_stats.other_issues;
  check_int "other lanes" split.(3) stats.Core.Region_stats.other_active;
  check_bool "both sides issued" true (split.(0) > 0 && split.(2) > 0)

let prop_memsys_cost_formula =
  (* Without a cache the coalescing cost is exactly
     base + (lines - 1) * per_transaction. *)
  QCheck2.Test.make ~name:"memsys: cost matches the coalescing formula" ~count:200
    QCheck2.Gen.(list_size (int_range 1 32) (int_range 0 4095))
    (fun addrs ->
      let m = Simt.Memsys.create mem_config ~size:4096 in
      let lines =
        List.sort_uniq compare
          (List.map (fun a -> a / mem_config.Simt.Config.line_words) addrs)
      in
      Simt.Memsys.access_costn m ~addrs:(Array.of_list addrs) ~n:(List.length addrs)
      = mem_config.Simt.Config.base_latency
        + ((List.length lines - 1) * mem_config.Simt.Config.per_transaction))

let prop_barrier_unit_invariants =
  (* Random operation sequences keep the unit's invariants: waiting is a
     subset of participants, and a fire releases exactly the waiters. *)
  let op_gen =
    QCheck2.Gen.(
      pair (int_range 0 2) (pair (int_range 0 1) (int_range 0 7)) (* op, barrier, lane *))
  in
  QCheck2.Test.make ~name:"barrier unit: waiting ⊆ participants under any op sequence"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let u = Simt.Barrier_unit.create ~n_barriers:2 ~warp_size:8 in
      List.for_all
        (fun (op, (b, lane)) ->
          (match op with
          | 0 -> Simt.Barrier_unit.join u b lane
          | 1 -> Simt.Barrier_unit.cancel u b lane
          | _ ->
            if
              Simt.Barrier_unit.is_participant u b lane
              && not (Support.Mask.mem lane (Simt.Barrier_unit.waiting u b))
            then Simt.Barrier_unit.block u b lane ~now:0 ~threshold:(-1));
          let w = Simt.Barrier_unit.waiting u b
          and p = Simt.Barrier_unit.participants u b in
          let subset_ok = Support.Mask.subset w p in
          let fire_ok =
            match Simt.Barrier_unit.fired u b with
            | None -> true
            | Some released ->
              Support.Mask.equal released w
              && Support.Mask.is_empty
                   (Support.Mask.inter released (Simt.Barrier_unit.participants u b))
          in
          subset_ok && fire_ok)
        ops)

let test_config_validation () =
  let invalid c = match Simt.Config.validate c with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "expected config rejection"
  in
  invalid { Simt.Config.default with Simt.Config.warp_size = 0 };
  invalid { Simt.Config.default with Simt.Config.warp_size = 1000 };
  invalid { Simt.Config.default with Simt.Config.n_warps = 0 };
  invalid { Simt.Config.default with Simt.Config.max_issues = 0 };
  invalid
    {
      Simt.Config.default with
      Simt.Config.latencies = { Simt.Config.default.Simt.Config.latencies with Simt.Config.alu = 0 };
    };
  invalid
    {
      Simt.Config.default with
      Simt.Config.memory =
        {
          Simt.Config.default.Simt.Config.memory with
          Simt.Config.cache = Some { Simt.Config.sets = 0; ways = 1; hit_latency = 1 };
        };
    };
  Simt.Config.validate Simt.Config.default

let tests =
  [
    ( "simt.valops",
      [
        Alcotest.test_case "int ops" `Quick test_valops_int;
        Alcotest.test_case "float ops" `Quick test_valops_float;
        Alcotest.test_case "truthy" `Quick test_valops_truthy;
      ] );
    ( "simt.memsys",
      [
        Alcotest.test_case "read/write" `Quick test_memsys_rw;
        Alcotest.test_case "coalescing" `Quick test_memsys_coalescing;
        Alcotest.test_case "cache" `Quick test_memsys_cache;
      ] );
    ( "simt.barrier_unit",
      [
        Alcotest.test_case "fire when all wait" `Quick test_barrier_basic_fire;
        Alcotest.test_case "cancel completes" `Quick test_barrier_cancel_completes;
        Alcotest.test_case "threshold (soft barrier)" `Quick test_barrier_threshold;
        Alcotest.test_case "withdraw lane" `Quick test_barrier_withdraw;
        Alcotest.test_case "withdrawals complete a pending threshold wait" `Quick
          test_barrier_threshold_withdraw_completes;
        Alcotest.test_case "cancel during pending threshold wait" `Quick
          test_barrier_cancel_during_threshold;
        Alcotest.test_case "force release (yield primitive)" `Quick test_barrier_force_release;
        Alcotest.test_case "errors" `Quick test_barrier_errors;
      ] );
    ("simt.metrics", [ Alcotest.test_case "derivations" `Quick test_metrics ]);
    ( "simt.interp",
      [
        Alcotest.test_case "tid store" `Quick test_interp_tid_store;
        Alcotest.test_case "uniform 100% efficiency" `Quick test_interp_full_efficiency_when_uniform;
        Alcotest.test_case "divergence lowers efficiency" `Quick
          test_interp_divergence_reduces_efficiency;
        Alcotest.test_case "kernel args" `Quick test_interp_args;
        Alcotest.test_case "arity error" `Quick test_interp_arity_error;
        Alcotest.test_case "runtime errors" `Quick test_interp_runtime_errors;
        Alcotest.test_case "runaway protection" `Quick test_interp_runaway;
        Alcotest.test_case "one binding issue budget" `Quick test_interp_binding_budget;
        Alcotest.test_case "determinism" `Quick test_interp_determinism;
        Alcotest.test_case "policy-invariant results" `Quick test_interp_policies_same_results;
        Alcotest.test_case "rr cursor scoped to round-robin" `Quick test_interp_rr_state_scoped;
        Alcotest.test_case "no spontaneous merge" `Quick test_interp_no_spontaneous_merge;
        Alcotest.test_case "barriers reconverge" `Quick test_interp_barrier_reconverges;
        Alcotest.test_case "tracer consistency" `Quick test_tracer_consistency;
        Alcotest.test_case "count table matches the tracer" `Quick test_count_table;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        QCheck_alcotest.to_alcotest prop_memsys_cost_formula;
        QCheck_alcotest.to_alcotest prop_barrier_unit_invariants;
      ] );
  ]
