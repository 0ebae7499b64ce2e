(* Differential test: an independent OCaml reference implementation of the
   MeiyaMD5 workload, computed straight from its per-thread sequential
   semantics, must match the full pipeline (MiniSIMT source → coarsening →
   lowering → synchronization passes → linearizer → SIMT simulator)
   bit-for-bit, in every compilation mode.

   MeiyaMD5 is the right subject: it is pure integer arithmetic (no
   floating-point rounding-order concerns) and draws from the per-thread
   PRNG, so the test also pins down the exact RNG stream contract
   (streams keyed by (seed, warp, lane); a coarsened thread consumes all
   of its tasks from one stream, in task order). *)

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let imax = 2147483647

(* One simulated task of the kernel in lib/workloads/meiyamd5.ml, executed
   for virtual thread id [vtid] with draws taken from [rng]. Must mirror
   the MiniSIMT source exactly, including the order of randint draws. *)
let reference_task rng ~vtid ~max_len ~targets =
  let length =
    let short = 2 + Support.Splitmix.int rng 8 in
    if Support.Splitmix.int rng 5 = 0 then (max_len / 2) + Support.Splitmix.int rng (max_len / 2)
    else short
  in
  let a = ref 1732584193
  and b = ref 271733879
  and c = ref 1732584194
  and d = ref 271733878 in
  for block = 0 to length - 1 do
    let m = (block * 1103515245) + (vtid * 12345) in
    let f1 = (!b mod 65536 * (!c mod 65536)) + (!d mod 65536) in
    a := (!a + f1 + m) mod imax;
    a := ((!a * 131) + !b) mod imax;
    a := ((!a * 31) + (!b mod 4096 * (!c mod 4096))) mod imax;
    let f2 = (!a mod 65536 * (!d mod 65536)) + (!c mod 65536) in
    b := (!b + f2 + (m * 7)) mod imax;
    b := ((!b * 131) + !c) mod imax;
    b := ((!b * 37) + (!c mod 4096 * (!d mod 4096))) mod imax;
    let f3 = (!a mod 65536) + (!b mod 65536 * (!d mod 65536)) in
    c := (!c + f3 + (m * 13)) mod imax;
    c := ((!c * 41) + (!a mod 4096 * (!d mod 4096))) mod imax;
    d := (!d + (!a mod 65536 * (!b mod 65536)) + (m * 29)) mod imax;
    d := ((!d * 43) + (!a mod 4096 * (!b mod 4096))) mod imax
  done;
  let digest = (!a + !b + !c + !d) mod imax in
  if digest mod 64 = targets.(digest mod 64) mod 64 then 1 else 0

(* The targets table, regenerated exactly as the workload's [init] fills
   it. *)
let reference_targets () =
  let rng = Support.Splitmix.of_ints 0x77 0xd5d5 7 in
  Array.init 64 (fun _ -> Support.Splitmix.int rng 1000000)

let reference_outputs (config : Simt.Config.t) ~coarsen ~max_len =
  let targets = reference_targets () in
  let n_threads = config.n_warps * config.warp_size in
  let found = Hashtbl.create 64 in
  for wid = 0 to config.n_warps - 1 do
    for lane = 0 to config.warp_size - 1 do
      let tid = (wid * config.warp_size) + lane in
      let rng = Support.Splitmix.of_ints config.seed wid lane in
      (* a coarsened thread runs its tasks in order on one stream; task c
         simulates virtual thread tid + c * n_threads *)
      for c = 0 to coarsen - 1 do
        let vtid = tid + (c * n_threads) in
        Hashtbl.replace found vtid (reference_task rng ~vtid ~max_len ~targets)
      done
    done
  done;
  found

let run_mode options =
  let spec = Workloads.Registry.find "meiyamd5" in
  let outcome = Core.Runner.run_spec options spec in
  let base, size =
    Hashtbl.find outcome.Core.Runner.compiled.Core.Compile.program.Ir.Types.globals "found"
  in
  (outcome, Simt.Memsys.dump outcome.Core.Runner.memory ~base ~len:size)

let test_against_reference options_name options () =
  let spec = Workloads.Registry.find "meiyamd5" in
  let config = spec.Workloads.Spec.tweak_config Simt.Config.default in
  let coarsen = Option.get spec.Workloads.Spec.coarsen in
  let max_len =
    match spec.Workloads.Spec.args with
    | [ Ir.Types.I n ] -> n
    | _ -> Alcotest.fail "unexpected meiyamd5 arguments"
  in
  let expected = reference_outputs config ~coarsen ~max_len in
  let _, cells = run_mode options in
  let checked = ref 0 in
  Hashtbl.iter
    (fun vtid hit ->
      incr checked;
      match cells.(vtid) with
      | Ir.Types.I simulated ->
        if simulated <> hit then
          Alcotest.failf "%s: found[%d] = %d, reference says %d" options_name vtid simulated hit
      | Ir.Types.F _ -> Alcotest.failf "%s: found[%d] holds a float" options_name vtid)
    expected;
  check_bool "checked every virtual thread" true
    (!checked = config.Simt.Config.n_warps * config.Simt.Config.warp_size * coarsen)

(* ---- mummer: an independent reference for the suffix-walk workload ---- *)

let mummer_tables () =
  (* regenerated exactly as lib/workloads/mummer.ml's [init] fills them,
     in the same draw order *)
  let rng = Support.Splitmix.of_ints 0x33 0x9a2 6 in
  let tree_child =
    Array.init 8192 (fun _ ->
        if Support.Splitmix.float rng < 0.06 then 0 else 1 + Support.Splitmix.int rng 8191)
  in
  let skewed () =
    if Support.Splitmix.float rng < 0.95 then 0 else 1 + Support.Splitmix.int rng 3
  in
  let tree_base = Array.init 8192 (fun _ -> skewed ()) in
  let query_bases = Array.init 16384 (fun _ -> skewed ()) in
  (tree_child, tree_base, query_bases)

let mummer_reference_task rng ~vtid ~query_len (tree_child, tree_base, query_bases) =
  let query_off = vtid * 4 in
  let node = ref (1 + Support.Splitmix.int rng 8191) in
  let depth = ref 0 in
  let matched = ref true in
  while !matched && !depth < query_len do
    let base_expected = tree_base.(!node mod 8192) in
    let q = query_bases.((query_off + !depth) mod 16384) in
    if q = base_expected then begin
      node := tree_child.(((!node * 4) + q) mod 8192);
      incr depth;
      if !node = 0 then matched := false
    end
    else matched := false
  done;
  !depth

let test_mummer_against_reference options_name options () =
  let spec = Workloads.Registry.find "mummer" in
  let config = spec.Workloads.Spec.tweak_config Simt.Config.default in
  let coarsen = Option.get spec.Workloads.Spec.coarsen in
  let query_len =
    match spec.Workloads.Spec.args with
    | [ Ir.Types.I n ] -> n
    | _ -> Alcotest.fail "unexpected mummer arguments"
  in
  let tables = mummer_tables () in
  let n_threads = config.Simt.Config.n_warps * config.Simt.Config.warp_size in
  let outcome = Core.Runner.run_spec options spec in
  let base, size =
    Hashtbl.find outcome.Core.Runner.compiled.Core.Compile.program.Ir.Types.globals
      "match_lengths"
  in
  let cells = Simt.Memsys.dump outcome.Core.Runner.memory ~base ~len:size in
  for wid = 0 to config.Simt.Config.n_warps - 1 do
    for lane = 0 to config.Simt.Config.warp_size - 1 do
      let tid = (wid * config.Simt.Config.warp_size) + lane in
      let rng = Support.Splitmix.of_ints config.Simt.Config.seed wid lane in
      for c = 0 to coarsen - 1 do
        let vtid = tid + (c * n_threads) in
        let expected = mummer_reference_task rng ~vtid ~query_len tables in
        match cells.(vtid) with
        | Ir.Types.I simulated ->
          if simulated <> expected then
            Alcotest.failf "%s: match_lengths[%d] = %d, reference says %d" options_name vtid
              simulated expected
        | Ir.Types.F _ -> Alcotest.failf "%s: match_lengths[%d] holds a float" options_name vtid
      done
    done
  done


(* ---- full-registry golden differential vs the seed interpreter ----

   The mask-based interpreter (bitmask convergence groups, preallocated
   scratch, cached time-advance) is required to be *observationally
   identical* to the original list/Hashtbl implementation — same issue
   schedule, same cycle accounting, same memory image. These goldens
   were captured by running the seed interpreter over the whole workload
   registry under each compilation mode; the rows for the other
   scheduler policies, the chaos scheduler and yield recovery were
   captured from the interpreter that scanned blocked groups on every
   issue, before blocked lanes left the group table. Any schedule or
   timing drift in a future interpreter change trips this immediately. *)

type golden = {
  issues : int;
  active_sum : int;
  cycles : int;
  mem_accesses : int;
  barrier_joins : int;
  barrier_waits : int;
  barrier_fires : int;
  barrier_cancels : int;
  yields : int;
  threads_finished : int;
  mem_digest : int;
}

(* (workload, mode, scheduler policy): every policy reads the same
   group table, so a change to it must leave all three schedules where
   they were. *)
let seed_goldens =
  [
    ("rsbench", "baseline", "most-threads", { issues = 171059; active_sum = 1671005; cycles = 209618; mem_accesses = 3816; barrier_joins = 3804; barrier_waits = 121; barrier_fires = 12; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("rsbench", "speculative", "most-threads", { issues = 124008; active_sum = 1782000; cycles = 147377; mem_accesses = 2947; barrier_joins = 5109; barrier_waits = 3009; barrier_fires = 2720; barrier_cancels = 2729; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("rsbench", "automatic", "most-threads", { issues = 124008; active_sum = 1782000; cycles = 147377; mem_accesses = 2947; barrier_joins = 5109; barrier_waits = 3009; barrier_fires = 2720; barrier_cancels = 2729; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("xsbench", "baseline", "most-threads", { issues = 135731; active_sum = 1692222; cycles = 485136; mem_accesses = 10380; barrier_joins = 3712; barrier_waits = 421; barrier_fires = 168; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("xsbench", "speculative", "most-threads", { issues = 246533; active_sum = 1816099; cycles = 331597; mem_accesses = 17389; barrier_joins = 13660; barrier_waits = 7976; barrier_fires = 6966; barrier_cancels = 5195; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("xsbench", "automatic", "most-threads", { issues = 143503; active_sum = 1816099; cycles = 500057; mem_accesses = 9952; barrier_joins = 10268; barrier_waits = 6151; barrier_fires = 5415; barrier_cancels = 2443; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("mcb", "baseline", "most-threads", { issues = 10598; active_sum = 80516; cycles = 13919; mem_accesses = 146; barrier_joins = 672; barrier_waits = 792; barrier_fires = 534; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("mcb", "speculative", "most-threads", { issues = 8733; active_sum = 84603; cycles = 11550; mem_accesses = 158; barrier_joins = 598; barrier_waits = 733; barrier_fires = 514; barrier_cancels = 187; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("mcb", "automatic", "most-threads", { issues = 8733; active_sum = 84603; cycles = 11550; mem_accesses = 158; barrier_joins = 598; barrier_waits = 733; barrier_fires = 514; barrier_cancels = 187; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("pathtracer", "baseline", "most-threads", { issues = 81846; active_sum = 718976; cycles = 167639; mem_accesses = 5132; barrier_joins = 5017; barrier_waits = 4062; barrier_fires = 3022; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("pathtracer", "speculative", "most-threads", { issues = 43408; active_sum = 726966; cycles = 81465; mem_accesses = 2324; barrier_joins = 2773; barrier_waits = 2835; barrier_fires = 1876; barrier_cancels = 274; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("pathtracer", "automatic", "most-threads", { issues = 43408; active_sum = 726966; cycles = 81465; mem_accesses = 2324; barrier_joins = 2773; barrier_waits = 2835; barrier_fires = 1876; barrier_cancels = 274; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("mc-gpu", "baseline", "most-threads", { issues = 18409; active_sum = 128824; cycles = 30655; mem_accesses = 424; barrier_joins = 1410; barrier_waits = 1513; barrier_fires = 1202; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mc-gpu", "speculative", "most-threads", { issues = 11891; active_sum = 133925; cycles = 21710; mem_accesses = 283; barrier_joins = 884; barrier_waits = 1062; barrier_fires = 795; barrier_cancels = 202; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mc-gpu", "automatic", "most-threads", { issues = 11891; active_sum = 133925; cycles = 21710; mem_accesses = 283; barrier_joins = 884; barrier_waits = 1062; barrier_fires = 795; barrier_cancels = 202; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mummer", "baseline", "most-threads", { issues = 11737; active_sum = 103363; cycles = 41629; mem_accesses = 885; barrier_joins = 1191; barrier_waits = 1424; barrier_fires = 897; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("mummer", "speculative", "most-threads", { issues = 11331; active_sum = 111692; cycles = 39396; mem_accesses = 660; barrier_joins = 1124; barrier_waits = 1394; barrier_fires = 951; barrier_cancels = 334; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("mummer", "automatic", "most-threads", { issues = 11324; active_sum = 114383; cycles = 39465; mem_accesses = 660; barrier_joins = 1134; barrier_waits = 1290; barrier_fires = 780; barrier_cancels = 619; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("meiyamd5", "baseline", "most-threads", { issues = 47563; active_sum = 390444; cycles = 47660; mem_accesses = 24; barrier_joins = 556; barrier_waits = 196; barrier_fires = 36; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("meiyamd5", "speculative", "most-threads", { issues = 47563; active_sum = 390444; cycles = 47660; mem_accesses = 24; barrier_joins = 556; barrier_waits = 196; barrier_fires = 36; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("meiyamd5", "automatic", "most-threads", { issues = 32172; active_sum = 403132; cycles = 35529; mem_accesses = 344; barrier_joins = 992; barrier_waits = 991; barrier_fires = 754; barrier_cancels = 461; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("optix-trace", "baseline", "most-threads", { issues = 65082; active_sum = 316088; cycles = 108898; mem_accesses = 2908; barrier_joins = 4420; barrier_waits = 3848; barrier_fires = 2832; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("optix-trace", "speculative", "most-threads", { issues = 65082; active_sum = 316088; cycles = 108898; mem_accesses = 2908; barrier_joins = 4420; barrier_waits = 3848; barrier_fires = 2832; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("optix-trace", "automatic", "most-threads", { issues = 44143; active_sum = 320252; cycles = 75269; mem_accesses = 1801; barrier_joins = 3535; barrier_waits = 3328; barrier_fires = 2404; barrier_cancels = 452; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("gpu-mcml", "baseline", "most-threads", { issues = 36967; active_sum = 583863; cycles = 48245; mem_accesses = 426; barrier_joins = 2544; barrier_waits = 2269; barrier_fires = 2126; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("gpu-mcml", "speculative", "most-threads", { issues = 30282; active_sum = 603994; cycles = 38121; mem_accesses = 397; barrier_joins = 2283; barrier_waits = 2333; barrier_fires = 2006; barrier_cancels = 401; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("gpu-mcml", "automatic", "most-threads", { issues = 30282; active_sum = 603994; cycles = 38121; mem_accesses = 397; barrier_joins = 2283; barrier_waits = 2333; barrier_fires = 2006; barrier_cancels = 401; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("common-call", "baseline", "most-threads", { issues = 26274; active_sum = 425280; cycles = 26350; mem_accesses = 2; barrier_joins = 24; barrier_waits = 48; barrier_fires = 24; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    (* Recaptured when deconfliction learned to see interprocedural
       barriers (calls to a waiting callee now count as the wait event,
       srfuzz corpus id 18): the propagated barrier's conflict with the
       PDOM join is now resolved by Cancel-before-call, so the schedule
       metrics moved while the memory digest stayed identical. *)
    ("common-call", "speculative", "most-threads", { issues = 13912; active_sum = 427712; cycles = 16255; mem_accesses = 4; barrier_joins = 96; barrier_waits = 96; barrier_fires = 24; barrier_cancels = 52; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    ("common-call", "automatic", "most-threads", { issues = 26274; active_sum = 425280; cycles = 26350; mem_accesses = 2; barrier_joins = 24; barrier_waits = 48; barrier_fires = 24; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    (* The other two policies, under the PDOM and the speculative placement. *)
    ("rsbench", "baseline", "lowest-pc", { issues = 171059; active_sum = 1671005; cycles = 209703; mem_accesses = 3816; barrier_joins = 3804; barrier_waits = 121; barrier_fires = 12; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("rsbench", "speculative", "lowest-pc", { issues = 124008; active_sum = 1782000; cycles = 147209; mem_accesses = 2947; barrier_joins = 5109; barrier_waits = 3009; barrier_fires = 2720; barrier_cancels = 2729; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("xsbench", "baseline", "lowest-pc", { issues = 135731; active_sum = 1692222; cycles = 485084; mem_accesses = 10380; barrier_joins = 3712; barrier_waits = 421; barrier_fires = 168; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("xsbench", "speculative", "lowest-pc", { issues = 239874; active_sum = 1816099; cycles = 334536; mem_accesses = 16918; barrier_joins = 13394; barrier_waits = 7816; barrier_fires = 6836; barrier_cancels = 5032; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("mcb", "baseline", "lowest-pc", { issues = 10598; active_sum = 80516; cycles = 14762; mem_accesses = 146; barrier_joins = 672; barrier_waits = 792; barrier_fires = 534; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("mcb", "speculative", "lowest-pc", { issues = 8733; active_sum = 84603; cycles = 12004; mem_accesses = 158; barrier_joins = 598; barrier_waits = 733; barrier_fires = 514; barrier_cancels = 187; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("pathtracer", "baseline", "lowest-pc", { issues = 81846; active_sum = 718976; cycles = 167661; mem_accesses = 5132; barrier_joins = 5017; barrier_waits = 4062; barrier_fires = 3022; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("pathtracer", "speculative", "lowest-pc", { issues = 43408; active_sum = 726966; cycles = 81276; mem_accesses = 2324; barrier_joins = 2773; barrier_waits = 2835; barrier_fires = 1876; barrier_cancels = 274; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("mc-gpu", "baseline", "lowest-pc", { issues = 18409; active_sum = 128824; cycles = 31079; mem_accesses = 424; barrier_joins = 1410; barrier_waits = 1513; barrier_fires = 1202; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mc-gpu", "speculative", "lowest-pc", { issues = 11891; active_sum = 133925; cycles = 21814; mem_accesses = 283; barrier_joins = 884; barrier_waits = 1062; barrier_fires = 795; barrier_cancels = 202; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mummer", "baseline", "lowest-pc", { issues = 11737; active_sum = 103363; cycles = 41643; mem_accesses = 885; barrier_joins = 1191; barrier_waits = 1424; barrier_fires = 897; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("mummer", "speculative", "lowest-pc", { issues = 11331; active_sum = 111692; cycles = 39433; mem_accesses = 660; barrier_joins = 1124; barrier_waits = 1394; barrier_fires = 951; barrier_cancels = 334; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("meiyamd5", "baseline", "lowest-pc", { issues = 47563; active_sum = 390444; cycles = 47659; mem_accesses = 24; barrier_joins = 556; barrier_waits = 196; barrier_fires = 36; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("meiyamd5", "speculative", "lowest-pc", { issues = 47563; active_sum = 390444; cycles = 47659; mem_accesses = 24; barrier_joins = 556; barrier_waits = 196; barrier_fires = 36; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("optix-trace", "baseline", "lowest-pc", { issues = 65082; active_sum = 316088; cycles = 109417; mem_accesses = 2908; barrier_joins = 4420; barrier_waits = 3848; barrier_fires = 2832; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("optix-trace", "speculative", "lowest-pc", { issues = 65082; active_sum = 316088; cycles = 109417; mem_accesses = 2908; barrier_joins = 4420; barrier_waits = 3848; barrier_fires = 2832; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("gpu-mcml", "baseline", "lowest-pc", { issues = 36967; active_sum = 583863; cycles = 48145; mem_accesses = 426; barrier_joins = 2544; barrier_waits = 2269; barrier_fires = 2126; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("gpu-mcml", "speculative", "lowest-pc", { issues = 30282; active_sum = 603994; cycles = 38130; mem_accesses = 397; barrier_joins = 2283; barrier_waits = 2333; barrier_fires = 2006; barrier_cancels = 401; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("common-call", "baseline", "lowest-pc", { issues = 26274; active_sum = 425280; cycles = 26350; mem_accesses = 2; barrier_joins = 24; barrier_waits = 48; barrier_fires = 24; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    ("common-call", "speculative", "lowest-pc", { issues = 13912; active_sum = 427712; cycles = 16255; mem_accesses = 4; barrier_joins = 96; barrier_waits = 96; barrier_fires = 24; barrier_cancels = 52; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    ("rsbench", "baseline", "round-robin", { issues = 171059; active_sum = 1671005; cycles = 209703; mem_accesses = 3816; barrier_joins = 3804; barrier_waits = 121; barrier_fires = 12; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("rsbench", "speculative", "round-robin", { issues = 124008; active_sum = 1782000; cycles = 147401; mem_accesses = 2947; barrier_joins = 5109; barrier_waits = 3009; barrier_fires = 2720; barrier_cancels = 2729; yields = 0; threads_finished = 64; mem_digest = 892441511871304325 });
    ("xsbench", "baseline", "round-robin", { issues = 135731; active_sum = 1692222; cycles = 485084; mem_accesses = 10380; barrier_joins = 3712; barrier_waits = 421; barrier_fires = 168; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("xsbench", "speculative", "round-robin", { issues = 283874; active_sum = 1816099; cycles = 360254; mem_accesses = 20007; barrier_joins = 16411; barrier_waits = 9218; barrier_fires = 8402; barrier_cancels = 5833; yields = 0; threads_finished = 64; mem_digest = 373752142903086589 });
    ("mcb", "baseline", "round-robin", { issues = 10598; active_sum = 80516; cycles = 14727; mem_accesses = 146; barrier_joins = 672; barrier_waits = 792; barrier_fires = 534; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("mcb", "speculative", "round-robin", { issues = 8733; active_sum = 84603; cycles = 12081; mem_accesses = 158; barrier_joins = 598; barrier_waits = 733; barrier_fires = 514; barrier_cancels = 187; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("pathtracer", "baseline", "round-robin", { issues = 81846; active_sum = 718976; cycles = 167661; mem_accesses = 5132; barrier_joins = 5017; barrier_waits = 4062; barrier_fires = 3022; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("pathtracer", "speculative", "round-robin", { issues = 43408; active_sum = 726966; cycles = 81285; mem_accesses = 2324; barrier_joins = 2773; barrier_waits = 2835; barrier_fires = 1876; barrier_cancels = 274; yields = 0; threads_finished = 64; mem_digest = 4440290232581343234 });
    ("mc-gpu", "baseline", "round-robin", { issues = 18409; active_sum = 128824; cycles = 31022; mem_accesses = 424; barrier_joins = 1410; barrier_waits = 1513; barrier_fires = 1202; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mc-gpu", "speculative", "round-robin", { issues = 11891; active_sum = 133925; cycles = 21818; mem_accesses = 283; barrier_joins = 884; barrier_waits = 1062; barrier_fires = 795; barrier_cancels = 202; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mummer", "baseline", "round-robin", { issues = 11737; active_sum = 103363; cycles = 41643; mem_accesses = 885; barrier_joins = 1191; barrier_waits = 1424; barrier_fires = 897; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("mummer", "speculative", "round-robin", { issues = 11331; active_sum = 111692; cycles = 39478; mem_accesses = 660; barrier_joins = 1124; barrier_waits = 1394; barrier_fires = 951; barrier_cancels = 334; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("meiyamd5", "baseline", "round-robin", { issues = 47563; active_sum = 390444; cycles = 47659; mem_accesses = 24; barrier_joins = 556; barrier_waits = 196; barrier_fires = 36; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("meiyamd5", "speculative", "round-robin", { issues = 47563; active_sum = 390444; cycles = 47659; mem_accesses = 24; barrier_joins = 556; barrier_waits = 196; barrier_fires = 36; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2128813945386842112 });
    ("optix-trace", "baseline", "round-robin", { issues = 65082; active_sum = 316088; cycles = 108210; mem_accesses = 2908; barrier_joins = 4420; barrier_waits = 3848; barrier_fires = 2832; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("optix-trace", "speculative", "round-robin", { issues = 65082; active_sum = 316088; cycles = 108210; mem_accesses = 2908; barrier_joins = 4420; barrier_waits = 3848; barrier_fires = 2832; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 414506578627320441 });
    ("gpu-mcml", "baseline", "round-robin", { issues = 36967; active_sum = 583863; cycles = 48145; mem_accesses = 426; barrier_joins = 2544; barrier_waits = 2269; barrier_fires = 2126; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("gpu-mcml", "speculative", "round-robin", { issues = 30282; active_sum = 603994; cycles = 38066; mem_accesses = 397; barrier_joins = 2283; barrier_waits = 2333; barrier_fires = 2006; barrier_cancels = 401; yields = 0; threads_finished = 64; mem_digest = 1122208241897937969 });
    ("common-call", "baseline", "round-robin", { issues = 26274; active_sum = 425280; cycles = 26326; mem_accesses = 2; barrier_joins = 24; barrier_waits = 48; barrier_fires = 24; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    ("common-call", "speculative", "round-robin", { issues = 13912; active_sum = 427712; cycles = 16255; mem_accesses = 4; barrier_joins = 96; barrier_waits = 96; barrier_fires = 24; barrier_cancels = 52; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
  ]

(* Most-threads under the chaos scheduler ([Simt.Faults.create ~seed:7]):
   [Faults.pick] chooses among the sorted candidates, and spurious
   releases and stalls reach the group table from outside [execute].
   (workload, mode, faults injected). *)
let chaos_goldens =
  [
    ("mcb", "baseline", 250, { issues = 10828; active_sum = 80516; cycles = 12765; mem_accesses = 171; barrier_joins = 636; barrier_waits = 752; barrier_fires = 455; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("mcb", "speculative", 133, { issues = 8920; active_sum = 84603; cycles = 11866; mem_accesses = 163; barrier_joins = 608; barrier_waits = 747; barrier_fires = 518; barrier_cancels = 188; yields = 0; threads_finished = 64; mem_digest = 1908784984988443069 });
    ("mc-gpu", "baseline", 373, { issues = 16840; active_sum = 128824; cycles = 23287; mem_accesses = 416; barrier_joins = 1142; barrier_waits = 1280; barrier_fires = 904; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mc-gpu", "speculative", 170, { issues = 12107; active_sum = 133925; cycles = 22518; mem_accesses = 287; barrier_joins = 904; barrier_waits = 1088; barrier_fires = 807; barrier_cancels = 209; yields = 0; threads_finished = 64; mem_digest = 2163197422340525621 });
    ("mummer", "baseline", 207, { issues = 11895; active_sum = 103363; cycles = 36555; mem_accesses = 880; barrier_joins = 1146; barrier_waits = 1372; barrier_fires = 824; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("mummer", "speculative", 168, { issues = 11631; active_sum = 111692; cycles = 40638; mem_accesses = 674; barrier_joins = 1152; barrier_waits = 1428; barrier_fires = 956; barrier_cancels = 340; yields = 0; threads_finished = 64; mem_digest = 2873978097527350252 });
    ("common-call", "baseline", 666, { issues = 26274; active_sum = 425280; cycles = 27063; mem_accesses = 2; barrier_joins = 24; barrier_waits = 48; barrier_fires = 24; barrier_cancels = 0; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
    ("common-call", "speculative", 280, { issues = 18709; active_sum = 427712; cycles = 21114; mem_accesses = 4; barrier_joins = 96; barrier_waits = 96; barrier_fires = 32; barrier_cancels = 52; yields = 0; threads_finished = 64; mem_digest = 543971077896856215 });
  ]

(* Deadlock-corpus kernels compiled without deconfliction, run on two
   warps with yield recovery under each victim policy: the stall check
   and the forced release decide these schedules. (corpus file, yield
   policy). *)
let yield_goldens =
  [
    ("srfuzz_42_192_deadlock.simt", "oldest-arrival", { issues = 164; active_sum = 2094; cycles = 171; mem_accesses = 0; barrier_joins = 22; barrier_waits = 24; barrier_fires = 8; barrier_cancels = 8; yields = 8; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_192_deadlock.simt", "most-waiters", { issues = 146; active_sum = 2094; cycles = 156; mem_accesses = 0; barrier_joins = 20; barrier_waits = 21; barrier_fires = 8; barrier_cancels = 7; yields = 7; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_192_deadlock.simt", "lowest-slot", { issues = 112; active_sum = 2094; cycles = 119; mem_accesses = 0; barrier_joins = 16; barrier_waits = 16; barrier_fires = 6; barrier_cancels = 4; yields = 4; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_281_deadlock.simt", "oldest-arrival", { issues = 276; active_sum = 3822; cycles = 284; mem_accesses = 0; barrier_joins = 41; barrier_waits = 47; barrier_fires = 11; barrier_cancels = 13; yields = 17; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_281_deadlock.simt", "most-waiters", { issues = 337; active_sum = 3822; cycles = 346; mem_accesses = 0; barrier_joins = 50; barrier_waits = 57; barrier_fires = 14; barrier_cancels = 17; yields = 17; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_281_deadlock.simt", "lowest-slot", { issues = 251; active_sum = 3822; cycles = 254; mem_accesses = 0; barrier_joins = 39; barrier_waits = 44; barrier_fires = 14; barrier_cancels = 10; yields = 11; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_57_deadlock.simt", "oldest-arrival", { issues = 206; active_sum = 2892; cycles = 224; mem_accesses = 0; barrier_joins = 26; barrier_waits = 27; barrier_fires = 7; barrier_cancels = 7; yields = 10; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_57_deadlock.simt", "most-waiters", { issues = 248; active_sum = 2892; cycles = 267; mem_accesses = 0; barrier_joins = 31; barrier_waits = 33; barrier_fires = 9; barrier_cancels = 10; yields = 13; threads_finished = 64; mem_digest = 0 });
    ("srfuzz_42_57_deadlock.simt", "lowest-slot", { issues = 168; active_sum = 2892; cycles = 186; mem_accesses = 0; barrier_joins = 22; barrier_waits = 22; barrier_fires = 8; barrier_cancels = 4; yields = 6; threads_finished = 64; mem_digest = 0 });
  ]

(* Order-sensitive rolling hash over the full memory image; float cells
   hash by bit pattern so this is exact, not approximate. *)
let digest_memory (m : Simt.Memsys.t) =
  let n = Simt.Memsys.size m in
  let cells = Simt.Memsys.dump m ~base:0 ~len:n in
  let h = ref 0 in
  Array.iter
    (fun v ->
      let bits =
        match v with
        | Ir.Types.I i -> i
        | Ir.Types.F f -> Int64.to_int (Int64.bits_of_float f)
      in
      h := ((!h * 1000003) lxor bits) land max_int)
    cells;
  !h

let options_of_mode = function
  | "baseline" -> Core.Compile.baseline
  | "speculative" -> Core.Compile.speculative
  | "automatic" -> Core.Compile.automatic
  | mode -> Alcotest.failf "unknown mode %s" mode

let check_golden tag g (o : Core.Runner.outcome) =
  let m = o.Core.Runner.metrics in
  let tag field = Printf.sprintf "%s %s" tag field in
  check_int (tag "issues") g.issues m.Simt.Metrics.issues;
  check_int (tag "active_sum") g.active_sum m.Simt.Metrics.active_sum;
  check_int (tag "cycles") g.cycles m.Simt.Metrics.cycles;
  check_int (tag "mem_accesses") g.mem_accesses m.Simt.Metrics.mem_accesses;
  check_int (tag "barrier_joins") g.barrier_joins m.Simt.Metrics.barrier_joins;
  check_int (tag "barrier_waits") g.barrier_waits m.Simt.Metrics.barrier_waits;
  check_int (tag "barrier_fires") g.barrier_fires m.Simt.Metrics.barrier_fires;
  check_int (tag "barrier_cancels") g.barrier_cancels m.Simt.Metrics.barrier_cancels;
  check_int (tag "yields") g.yields m.Simt.Metrics.yields;
  check_int (tag "threads_finished") g.threads_finished m.Simt.Metrics.threads_finished;
  check_int (tag "mem_digest") g.mem_digest (digest_memory o.Core.Runner.memory)

(* Compile a workload once per mode, as [Core.Runner.run_spec] does, and
   launch it under any base config (and fault plan). *)
let launcher =
  let cache = Hashtbl.create 32 in
  fun name mode ->
    match Hashtbl.find_opt cache (name, mode) with
    | Some launch -> launch
    | None ->
      let spec = Workloads.Registry.find name in
      let options = options_of_mode mode in
      let options =
        match options.Core.Compile.coarsen with
        | Some _ -> options
        | None -> { options with Core.Compile.coarsen = spec.Workloads.Spec.coarsen }
      in
      let compiled = Core.Compile.compile options ~source:spec.source in
      let launch ?faults config =
        Core.Runner.launch ~config:(spec.tweak_config config) ~init:spec.init ?faults compiled
          ~args:spec.args
      in
      Hashtbl.add cache (name, mode) launch;
      launch

let test_registry_matches_seed () =
  List.iter
    (fun (name, mode, policy, g) ->
      let config = { Simt.Config.default with policy = List.assoc policy Simt.Config.policies } in
      check_golden (Printf.sprintf "%s/%s/%s" name mode policy) g (launcher name mode config))
    seed_goldens;
  List.iter
    (fun (name, mode, injected, g) ->
      let tag = Printf.sprintf "%s/%s chaos" name mode in
      let o = launcher name mode ~faults:(Simt.Faults.create ~seed:7) Simt.Config.default in
      check_int (tag ^ " faults_injected") injected o.Core.Runner.metrics.Simt.Metrics.faults_injected;
      check_golden tag g o)
    chaos_goldens;
  let undeconflicted = { Core.Compile.speculative with deconflict = false; lint = false } in
  List.iter
    (fun (file, yield_policy, g) ->
      let source = In_channel.with_open_bin (Filename.concat "corpus" file) In_channel.input_all in
      let compiled = Core.Compile.compile undeconflicted ~source in
      let config =
        { Simt.Config.default with
          n_warps = 2;
          yield_on_stall = true;
          yield_policy = List.assoc yield_policy Simt.Config.yield_policies }
      in
      check_golden (file ^ " " ^ yield_policy) g (Core.Runner.launch ~config compiled ~args:[]))
    yield_goldens

let tests =
  [
    ( "differential.registry",
      [
        Alcotest.test_case "all workloads x modes match seed goldens" `Slow
          test_registry_matches_seed;
      ] );
    ( "differential.mummer",
      [
        Alcotest.test_case "baseline matches OCaml reference" `Slow
          (test_mummer_against_reference "baseline" Core.Compile.baseline);
        Alcotest.test_case "specrecon matches OCaml reference" `Slow
          (test_mummer_against_reference "specrecon" Core.Compile.speculative);
      ] );
    ( "differential.meiyamd5",
      [
        Alcotest.test_case "baseline matches OCaml reference" `Slow
          (test_against_reference "baseline" Core.Compile.baseline);
        Alcotest.test_case "specrecon matches OCaml reference" `Slow
          (test_against_reference "specrecon" Core.Compile.speculative);
        Alcotest.test_case "automatic matches OCaml reference" `Slow
          (test_against_reference "automatic" Core.Compile.automatic);
      ] );
  ]
