(* srbench — one benchmark for compile, simulate and serve.

     srbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--ops N] [--out-dir DIR]
     srbench --all [same options]      every workload, each in a child process
     srbench --check-determinism       every workload twice at smoke size

   Each workload is a closed loop with one client. A run measures for
   --seconds seconds of op time (or exactly --ops ops), checks every
   output outside the timed region, prints one [workload metric value
   unit] line per metric and, last, one JSON result line. With --trace 1
   the run measures the same ops twice, untraced and then traced, and
   reports the per-layer metrics of the traced pass; its spans go to
   DIR/trace-NAME.json. README.md in this directory documents every
   metric, the workloads, the trace file and how to compare commits. *)

module C = Core.Compile
module P = Serve.Protocol
module Sm = Support.Splitmix

let now () = Int64.to_float (Spans.now ()) *. 1e-9

(* ---- metrics ---- *)

(* [exact] metrics are computed from simulated or compiler counts over
   the run's fixed prefix of ops: the same bytes on every run of one
   seed. The end-to-end ones, simt_efficiency and sim_cycles, read the
   same under every seed too (see [workloads]). *)
type metric = { name : string; unit : string; exact : bool }

let metric ?(exact = false) name unit = { name; unit; exact }

let end_to_end =
  [
    metric "setup_s" "s";
    metric "ops_per_s" "ops/s";
    metric "latency_p50_ms" "ms";
    metric "latency_p95_ms" "ms";
    metric "sim_issues_per_s" "issues/s";
    metric ~exact:true "simt_efficiency" "ratio";
    metric ~exact:true "sim_cycles" "cycles";
    metric "peak_rss_mb" "MB";
  ]

(* Printed with the end-to-end lines, but the JSON result carries it as
   [failed] / [attempted]: a metric that is 0 on every good run has no
   relative bound. *)
let failed_frac = metric ~exact:true "failed_frac" "ratio"

let per_layer =
  [
    metric "front.parse_ms" "ms";
    metric "front.coarsen_ms" "ms";
    metric "front.lower_ms" "ms";
    metric ~exact:true "front.source_kb" "KB";
    metric "passes.detect_ms" "ms";
    metric "passes.sync_ms" "ms";
    metric "passes.deconflict_ms" "ms";
    metric "passes.cleanup_ms" "ms";
    metric ~exact:true "passes.hints_applied" "count";
    metric ~exact:true "passes.deconflict_resolutions" "count";
    metric "analysis.lint_ms" "ms";
    metric "analysis.race_ms" "ms";
    metric "analysis.race_rebuild_frac" "ratio";
    metric ~exact:true "analysis.race_findings" "count";
    metric "ir.verify_ms" "ms";
    metric "ir.linearize_ms" "ms";
    metric "ir.decode_ms" "ms";
    metric ~exact:true "ir.decoded_slots" "count";
    metric "core.compile_ms" "ms";
    metric "core.stage_coverage" "ratio";
    metric "core.launch_share" "ratio";
    metric "simt.launch_ms" "ms";
    metric ~exact:true "simt.issues" "count";
    metric "simt.ns_per_issue" "ns";
    metric ~exact:true "simt.ipc" "issues/cycle";
    metric ~exact:true "simt.barrier_waits" "count";
    metric ~exact:true "simt.yields" "count";
    metric ~exact:true "simt.mem.accesses" "count";
    metric ~exact:true "simt.mem.tx_per_access" "ratio";
    metric ~exact:true "simt.mem.hit_rate" "ratio";
    metric "serve.parse_us" "us";
    metric "serve.submit_ms" "ms";
    metric "serve.print_us" "us";
    metric ~exact:true "serve.cache.hit_rate" "ratio";
    metric ~exact:true "serve.cache.evictions" "count";
    metric ~exact:true "serve.persist.hit_rate" "ratio";
    metric ~exact:true "serve.compiles" "count";
    metric "trace.overhead" "ratio";
  ]

let all_metrics = end_to_end @ (failed_frac :: per_layer)

(* The metric lines a run prints. *)
let printed ~trace = end_to_end @ (failed_frac :: (if trace then per_layer else []))

let find_metric name = List.find_opt (fun m -> String.equal m.name name) all_metrics

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks, on a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  let vm_hwm () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float_of_int kb /. 1024.0)
            | None -> scan ())
        in
        scan ())
  in
  match vm_hwm () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- counters ---- *)

type sim = {
  mutable issues : int;
  mutable active : int;
  mutable lanes : int; (* issues x warp size *)
  mutable cycles : int;
  mutable waits : int;
  mutable yields : int;
  mutable accesses : int;
  mutable tx : int;
  mutable hits : int;
  mutable misses : int;
}

let new_sim () =
  { issues = 0; active = 0; lanes = 0; cycles = 0; waits = 0; yields = 0; accesses = 0; tx = 0;
    hits = 0; misses = 0 }

let add_outcome ?(times = 1) s (o : Core.Runner.outcome) =
  let m = o.Core.Runner.metrics and st = Simt.Memsys.stats o.Core.Runner.memory in
  s.issues <- s.issues + (times * m.Simt.Metrics.issues);
  s.active <- s.active + (times * m.Simt.Metrics.active_sum);
  s.lanes <- s.lanes + (times * m.Simt.Metrics.issues * m.Simt.Metrics.warp_size);
  s.cycles <- s.cycles + (times * m.Simt.Metrics.cycles);
  s.waits <- s.waits + (times * m.Simt.Metrics.barrier_waits);
  s.yields <- s.yields + (times * m.Simt.Metrics.yields);
  s.accesses <- s.accesses + (times * m.Simt.Metrics.mem_accesses);
  s.tx <- s.tx + (times * st.Simt.Memsys.transactions);
  s.hits <- s.hits + (times * st.Simt.Memsys.hits);
  s.misses <- s.misses + (times * st.Simt.Memsys.misses)

type code = {
  mutable compiles : int;
  mutable bytes : int;
  mutable slots : int;
  mutable hints : int;
  mutable resolutions : int;
  mutable findings : int;
}

let new_code () = { compiles = 0; bytes = 0; slots = 0; hints = 0; resolutions = 0; findings = 0 }

let add_compiled ?(times = 1) c ~source (x : C.compiled) =
  let resolutions =
    match x.C.deconflict_report with
    | Some r -> List.length r.Passes.Deconflict.resolutions
    | None -> 0
  in
  c.compiles <- c.compiles + times;
  c.bytes <- c.bytes + (times * String.length source);
  c.slots <- c.slots + (times * Array.length x.C.decoded.Ir.Decoded.op);
  c.hints <- c.hints + (times * (List.length x.C.applied + List.length x.C.interproc_applied));
  c.resolutions <- c.resolutions + (times * resolutions);
  c.findings <- c.findings + (times * List.length x.C.race_findings)

type serve_counts = {
  hit_rate : float;
  evictions : int;
  persist_rate : float;
  server_compiles : int;
}

let no_serve = { hit_rate = 0.0; evictions = 0; persist_rate = 0.0; server_compiles = 0 }

(* ---- phases ---- *)

type budget = Seconds of float | Ops of int

(* A timed phase stops only between rounds, so every run measures whole
   rounds of the workload's op mix, and never before the prefix the exact
   metrics are summed over is complete. A fixed-size phase runs exactly
   its ops. *)
let running budget ~round ~prefix ~ops ~busy =
  match budget with
  | Ops n -> ops < n
  | Seconds s -> ops mod round <> 0 || ops < prefix || busy < s

(* Latency percentiles are taken over every op of a phase. For
   throughput the timed ops are also cut into windows of at least
   [window_seconds] of op time, each ending between rounds, and the run
   reports the median window's rate: on a shared machine the speed of a
   fixed loop wanders by tens of percent from one second to the next,
   and the median window is what a run sees most of the time. *)
let window_seconds = 0.5

type window = {
  w_ops : int;
  w_busy : float; (* seconds inside timed ops *)
  w_issues : int; (* simulated warp instructions issued *)
}

let empty_window = { w_ops = 0; w_busy = 0.0; w_issues = 0 }

let merge a b =
  { w_ops = a.w_ops + b.w_ops; w_busy = a.w_busy +. b.w_busy; w_issues = a.w_issues + b.w_issues }

type timing = {
  mutable closed : window list;
  mutable current : window;
  mutable samples : float list; (* latency per op, seconds *)
}

let new_timing () = { closed = []; current = empty_window; samples = [] }

(* [ops] ops that took [dt] seconds together: a serve batch is one
   sample per request, each with the batch's time. *)
let add_op t ~ops ~dt ~issues =
  t.current <- merge { w_ops = ops; w_busy = dt; w_issues = issues } t.current;
  for _ = 1 to ops do
    t.samples <- dt :: t.samples
  done

let end_round t =
  if t.current.w_busy >= window_seconds then begin
    t.closed <- t.current :: t.closed;
    t.current <- empty_window
  end

(* A short last window joins the one before it. *)
let windows t =
  match (t.closed, t.current) with
  | closed, { w_ops = 0; _ } -> closed
  | [], w -> [ w ]
  | last :: rest, w -> merge last w :: rest

type phase = {
  attempted : int;
  failed : int;
  windows : window list;
  samples : float array; (* latency per op, seconds, sorted *)
  prefix_rss : float; (* peak RSS in MB once the prefix was done *)
  exact : sim; (* simulated counts over the prefix *)
  code : code; (* compiler counts over the prefix *)
  served : serve_counts; (* server counters at the end of the prefix *)
  totals : (string, float) Hashtbl.t; (* seconds per span name; traced phases only *)
  real_compile : float; (* seconds in the real Core.Compile.compile; traced phases only *)
}

let median xs = quantile (sorted xs) 0.5
let per_window f (p : phase) = median (List.map f p.windows)
let ops_per_s = per_window (fun w -> float_of_int w.w_ops /. w.w_busy)
let issues_per_s = per_window (fun w -> float_of_int w.w_issues /. w.w_busy)
let latency_ms q (p : phase) = quantile p.samples q *. 1e3
let total_issues = List.fold_left (fun acc w -> acc + w.w_issues) 0

(* Per-layer metrics: counts over the prefix of the untraced phase
   [counts] (the same ops, so the same counts), times from the traced
   phase [times] as means per op. *)
let layer_metrics ~(counts : phase) ~(times : phase) =
  let get name = Option.value (Hashtbl.find_opt times.totals name) ~default:0.0 in
  let per_op scale name = get name /. float_of_int times.attempted *. scale in
  let ms = per_op 1e3 and us = per_op 1e6 in
  let staged = List.fold_left (fun acc name -> acc +. get name) 0.0 Stages.names in
  let code = counts.code and exact = counts.exact and served = counts.served in
  [
    ("front.parse_ms", ms "front.parse");
    ("front.coarsen_ms", ms "front.coarsen");
    ("front.lower_ms", ms "front.lower");
    ("front.source_kb", ratio code.bytes code.compiles /. 1024.0);
    ("passes.detect_ms", ms "passes.detect");
    ("passes.sync_ms", ms "passes.sync");
    ("passes.deconflict_ms", ms "passes.deconflict");
    ("passes.cleanup_ms", ms "passes.cleanup");
    ("passes.hints_applied", float_of_int code.hints);
    ("passes.deconflict_resolutions", float_of_int code.resolutions);
    ("analysis.lint_ms", ms "analysis.lint");
    ("analysis.race_ms", ms "analysis.race");
    ("analysis.race_rebuild_frac", fratio (get Stages.rebuild) (get "analysis.race"));
    ("analysis.race_findings", float_of_int code.findings);
    ("ir.verify_ms", ms "ir.verify");
    ("ir.linearize_ms", ms "ir.linearize");
    ("ir.decode_ms", ms "ir.decode");
    ("ir.decoded_slots", ratio code.slots code.compiles);
    ("core.compile_ms", times.real_compile /. float_of_int times.attempted *. 1e3);
    ("core.stage_coverage", fratio staged times.real_compile);
    ("core.launch_share", fratio (get "simt.launch") (get "op"));
    ("simt.launch_ms", ms "simt.launch");
    ("simt.issues", float_of_int exact.issues);
    ( "simt.ns_per_issue",
      fratio (get "simt.launch") (float_of_int (total_issues times.windows)) *. 1e9 );
    ("simt.ipc", ratio exact.issues exact.cycles);
    ("simt.barrier_waits", float_of_int exact.waits);
    ("simt.yields", float_of_int exact.yields);
    ("simt.mem.accesses", float_of_int exact.accesses);
    ("simt.mem.tx_per_access", ratio exact.tx exact.accesses);
    ("simt.mem.hit_rate", ratio exact.hits (exact.hits + exact.misses));
    ("serve.parse_us", us "serve.parse");
    ("serve.submit_ms", ms "serve.submit");
    ("serve.print_us", us "serve.print");
    ("serve.cache.hit_rate", served.hit_rate);
    ("serve.cache.evictions", float_of_int served.evictions);
    ("serve.persist.hit_rate", served.persist_rate);
    ("serve.compiles", float_of_int served.server_compiles);
  ]

let failures = ref 0

let report_failure what msg =
  incr failures;
  if !failures <= 10 then Printf.eprintf "srbench: %s: %s\n%!" what msg

(* ---- one-shot workloads: compile, then launch ---- *)

type job = {
  label : string; (* unique per (source, options) *)
  options : C.options;
  source : string;
  config : Simt.Config.t;
  init : Ir.Types.program -> Simt.Memsys.t -> unit;
  args : Ir.Types.value list;
  check : Ir.Types.program -> Simt.Memsys.t -> (unit, string) result;
  reference : string; (* jobs sharing a reference must leave equal memory *)
}

let no_init _ _ = ()
let no_check _ _ = Ok ()

let launch job compiled =
  Core.Runner.launch ~config:job.config ~init:job.init ~args:job.args compiled

(* The output check: the job's own check, then its memory digest
   against the PDOM build of the same source and seed. A baseline job
   is its own reference; other jobs build one on first use. *)
let check_job refs job (o : Core.Runner.outcome) =
  match job.check o.Core.Runner.compiled.C.program o.Core.Runner.memory with
  | Error msg -> Error ("output check: " ^ msg)
  | Ok () ->
    let digest = Simt.Memsys.digest o.Core.Runner.memory in
    let expected =
      match Hashtbl.find_opt refs job.reference with
      | Some d -> d
      | None ->
        let d =
          match job.options.C.mode with
          | C.Baseline -> digest
          | _ ->
            let pdom = { C.baseline with C.coarsen = job.options.C.coarsen } in
            Simt.Memsys.digest (launch job (C.compile pdom ~source:job.source)).Core.Runner.memory
        in
        Hashtbl.add refs job.reference d;
        d
    in
    if digest = expected then Ok () else Error "memory digest differs from the PDOM build"

let run_jobs ~budget ~round ~prefix ~tracer ~refs (jobs : job array) =
  let drift_checked = Hashtbl.create 64 in
  let exact = new_sim () and code = new_code () in
  let timing = new_timing () in
  let busy = ref 0.0 and real = ref 0.0 and failed = ref 0 and ops = ref 0 in
  let prefix_rss = ref nan in
  let fail i job msg =
    incr failed;
    report_failure (Printf.sprintf "op %d (%s)" i job.label) msg
  in
  let real_compile job =
    let t0 = now () in
    let compiled = try Ok (C.compile job.options ~source:job.source) with e -> Error e in
    real := !real +. (now () -. t0);
    compiled
  in
  while running budget ~round ~prefix ~ops:!ops ~busy:!busy do
    let i = !ops in
    let job = jobs.(i mod Array.length jobs) in
    incr ops;
    (* The traced phase also times the real compile, outside the op and
       alternately before and after it, so neither side always runs on
       warm caches. *)
    let real_before =
      if Option.is_some tracer && i mod 2 = 0 then Some (real_compile job) else None
    in
    Option.iter (fun sp -> Spans.set_op sp i) tracer;
    let t0 = now () in
    let result =
      try
        Ok
          (Spans.wrap tracer "op" (fun () ->
               let compiled =
                 match tracer with
                 | None -> C.compile job.options ~source:job.source
                 | Some sp ->
                   Spans.record sp "core.compile" (fun () ->
                       Stages.compile sp job.options ~source:job.source)
               in
               Spans.wrap tracer "simt.launch" (fun () -> launch job compiled)))
      with e -> Error (Printexc.to_string e)
    in
    let dt = now () -. t0 in
    busy := !busy +. dt;
    let issues =
      match result with Ok o -> o.Core.Runner.metrics.Simt.Metrics.issues | Error _ -> 0
    in
    add_op timing ~ops:1 ~dt ~issues;
    if !ops mod round = 0 then end_round timing;
    Option.iter
      (fun sp ->
        Spans.note sp ~label:job.label
          (match result with
          | Ok o ->
            let m = o.Core.Runner.metrics in
            [ ("issues", m.Simt.Metrics.issues); ("cycles", m.Simt.Metrics.cycles) ]
          | Error _ -> []))
      tracer;
    if !ops = prefix then prefix_rss := peak_rss_mb ();
    match result with
    | Error msg -> fail i job msg
    | Ok outcome -> (
      if i < prefix then begin
        add_outcome exact outcome;
        add_compiled code ~source:job.source outcome.Core.Runner.compiled
      end;
      (match check_job refs job outcome with Ok () -> () | Error msg -> fail i job msg);
      match tracer with
      | None -> ()
      | Some _ -> (
        let real = match real_before with Some r -> r | None -> real_compile job in
        if not (Hashtbl.mem drift_checked job.label) then begin
          Hashtbl.add drift_checked job.label ();
          match real with
          | Error e -> fail i job ("real compile failed: " ^ Printexc.to_string e)
          | Ok real -> (
            match Stages.drift ~copy:outcome.Core.Runner.compiled ~real with
            | None -> ()
            | Some msg -> fail i job ("pipeline copy drifted from Core.Compile: " ^ msg))
        end))
  done;
  {
    attempted = !ops;
    failed = !failed;
    windows = windows timing;
    samples = sorted timing.samples;
    prefix_rss = !prefix_rss;
    exact;
    code;
    served = no_serve;
    totals = (match tracer with Some sp -> Spans.totals sp | None -> Hashtbl.create 1);
    real_compile = !real;
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Sm.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The workload seed orders the traffic: [chunk]-sized slices of [a]
   are shuffled one by one, so every slice keeps its set of ops. *)
let order ~seed ~chunk a =
  let rng = Sm.of_ints seed 0x0d3e 3 in
  let n = Array.length a in
  Array.concat
    (List.init ((n + chunk - 1) / chunk) (fun c ->
         let s = Array.sub a (c * chunk) (min chunk (n - (c * chunk))) in
         shuffle rng s;
         s))

(* paper-eval: every Table-2 spec under baseline and specrecon, plus
   automatic for the auto subjects — 23 ops per pass. Pass [p] runs the
   machine with seed [Simt.Config.default.seed + p], so the 8-pass cycle
   averages over 8 random-number streams rather than leaning on one. The
   workload seed orders the ops inside each pass. *)
let paper_eval_passes = 8

let paper_eval_jobs () =
  let auto (spec : Workloads.Spec.t) =
    List.exists
      (fun (s : Workloads.Spec.t) -> String.equal s.Workloads.Spec.name spec.Workloads.Spec.name)
      Workloads.Registry.auto_subjects
  in
  let pass p (spec : Workloads.Spec.t) =
    let machine_seed = Simt.Config.default.Simt.Config.seed + p in
    let job mode options =
      {
        label = spec.name ^ "/" ^ mode;
        options = { options with C.coarsen = spec.coarsen };
        source = spec.source;
        config = spec.tweak_config { Simt.Config.default with Simt.Config.seed = machine_seed };
        init = spec.init;
        args = spec.args;
        check = spec.check;
        reference = Printf.sprintf "%s@%d" spec.name machine_seed;
      }
    in
    [ job "baseline" C.baseline; job "specrecon" C.speculative ]
    @ if auto spec then [ job "auto" C.automatic ] else []
  in
  Array.of_list
    (List.concat_map
       (fun p -> List.concat_map (pass p) Workloads.Registry.all)
       (List.init paper_eval_passes Fun.id))

(* The generated programs are fixed: generator seed [fuzz_gen_seed],
   whatever the workload seed, which only orders them. *)
let fuzz_gen_seed = 17

let fuzz_source i = Front.Pretty.to_string (Fuzz.Gen.generate ~seed:fuzz_gen_seed i).Fuzz.Gen.ast

let fuzz_jobs ~count =
  Array.init count (fun i ->
      let case = Fuzz.Gen.generate ~seed:fuzz_gen_seed i in
      let label = Printf.sprintf "fuzz-%d-%s" i (Fuzz.Gen.shape_name case.Fuzz.Gen.shape) in
      {
        label;
        options = C.speculative;
        source = Front.Pretty.to_string case.Fuzz.Gen.ast;
        config = Fuzz.Oracle.base_config;
        init = Serve.Server.data_init;
        args = [];
        check = no_check;
        reference = label;
      })

(* The compile-heavy shape of bench/serve_bench.ml: [n] guarded updates
   on a path no thread takes, so compile pays for every statement and a
   launch issues only the guards. *)
let cold_path ~salt ~n =
  let buf = Buffer.create (n * 64) in
  Buffer.add_string buf "global out: int[64];\n\nkernel k() {\n  var x: int = tid();\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  if (x == -%d) {\n    x = x * %d + %d;\n  }\n" (i + 1)
         (1 + ((salt + i) mod 3))
         ((salt * 7) + i))
  done;
  Buffer.add_string buf "  out[tid()] = x;\n}\n";
  Buffer.contents buf

(* An odd number of sizes puts the median op inside one size class (40)
   rather than on the boundary between two, where it would jump between
   them from run to run. *)
let large_sizes = [ 10; 20; 40; 80; 160 ]

let large_jobs ~seed ~passes =
  Array.of_list
    (List.concat_map
       (fun pass ->
         let salt = seed + pass in
         List.map
           (fun n ->
             let label = Printf.sprintf "cold-%d-%d" n salt in
             {
               label;
               options = C.speculative;
               source = cold_path ~salt ~n;
               config = { Simt.Config.default with Simt.Config.n_warps = 1; seed };
               init = no_init;
               args = [];
               check = no_check;
               reference = label;
             })
           large_sizes)
       (List.init passes Fun.id))

(* Untimed warm-up: compile and launch the first [n] jobs once. *)
let warm_up jobs n =
  Array.iteri
    (fun i job -> if i < n then ignore (launch job (C.compile job.options ~source:job.source)))
    jobs

(* ---- serve-zipf: an in-process server under Zipf traffic ---- *)

let batch = 4
let serve_capacity = 24
let serve_max_issues = 100_000_000

type kernel = {
  klabel : string;
  request : P.request;
  reference : (Core.Runner.outcome * int) Lazy.t;
      (* one-shot compile + launch of the request, and its memory digest *)
}

(* What Server does with a request, through the one-shot path: the
   options, machine and memory fill it derives from the request fields
   this workload sets. *)
let one_shot (r : P.request) =
  let options = { C.speculative with C.coarsen = r.P.coarsen } in
  let config =
    { Simt.Config.default with
      Simt.Config.n_warps = r.P.warps;
      warp_size = r.P.warp_size;
      seed = r.P.seed;
      max_issues = serve_max_issues }
  in
  let init = if String.equal r.P.init "data" then Serve.Server.data_init else no_init in
  (options, fun compiled -> Core.Runner.launch ~config ~init ~args:r.P.args compiled)

let kernel klabel request =
  let reference =
    lazy
      (let options, run = one_shot request in
       let outcome = run (C.compile options ~source:request.P.source) in
       (outcome, Simt.Memsys.digest outcome.Core.Runner.memory))
  in
  { klabel; request; reference }

(* A fuzz program whose one-shot launch issues more than this is skipped:
   one rare long-running kernel would otherwise carry most of the
   traffic's simulated work. *)
let serve_fuzz_max_issues = 20_000

(* 82 kernels in popularity-rank order, the same under every seed: the
   10 registry kernels hold ranks 1-10, and 64 fuzz programs and 8
   cold-path kernels of 80 statements are spread over ranks 11-82 by a
   fixed shuffle. The seed only salts the cold-path kernels' constants,
   which changes their source but not what they simulate. The warm-up
   computes the first [warm] references; the output check forces the
   rest on first use. *)
let serve_kernels ~seed ~warm =
  let registry =
    List.map
      (fun (spec : Workloads.Spec.t) ->
        kernel ("registry-" ^ spec.name)
          (P.make_request ~id:0 ~warps:1 ?coarsen:spec.coarsen ~args:spec.args
             ~source:spec.source ()))
      Workloads.Registry.all
  in
  let rec fuzz i acc =
    if List.length acc = 64 then List.rev acc
    else
      let k =
        kernel (Printf.sprintf "fuzz-%d" i)
          (P.make_request ~id:0 ~init:"data" ~source:(fuzz_source i) ())
      in
      let outcome, _ = Lazy.force k.reference in
      fuzz (i + 1)
        (if outcome.Core.Runner.metrics.Simt.Metrics.issues <= serve_fuzz_max_issues then k :: acc
         else acc)
  in
  let cold =
    List.init 8 (fun j ->
        kernel
          (Printf.sprintf "cold-80-%d" (seed + j))
          (P.make_request ~id:0 ~warps:1 ~source:(cold_path ~salt:(seed + j) ~n:80) ()))
  in
  let tail = Array.of_list (fuzz 0 [] @ cold) in
  shuffle (Sm.of_ints 0 0x5e7e 1) tail;
  let kernels = Array.append (Array.of_list registry) tail in
  Array.iteri (fun i k -> if i < warm then ignore (Lazy.force k.reference)) kernels;
  kernels

let zipf_block = 400

(* Zipf(1.0) popularity as an exact schedule. Every block of
   [zipf_block] requests holds rank r in proportion to 1/r
   (largest-remainder rounding), so a run's traffic mix does not depend
   on sampling luck. The block is dealt into batches that each take one
   request from every popularity quarter: the set of batch compositions,
   and with it the batch-time distribution the latency percentiles come
   from, is the same under every seed. The seed shuffles the batch
   order. *)
let zipf_schedule ~seed n =
  let h =
    List.fold_left (fun acc r -> acc +. (1.0 /. float_of_int (r + 1))) 0.0 (List.init n Fun.id)
  in
  let quota r = float_of_int zipf_block /. (float_of_int (r + 1) *. h) in
  let counts = Array.init n (fun r -> int_of_float (quota r)) in
  let missing = zipf_block - Array.fold_left ( + ) 0 counts in
  let frac r = quota r -. float_of_int counts.(r) in
  List.iteri
    (fun i r -> if i < missing then counts.(r) <- counts.(r) + 1)
    (List.stable_sort (fun a b -> Float.compare (frac b) (frac a)) (List.init n Fun.id));
  let by_rank = Array.concat (Array.to_list (Array.mapi (fun r c -> Array.make c r) counts)) in
  let batches = zipf_block / batch in
  let dealt = Array.init batches (fun j -> Array.init batch (fun q -> by_rank.(j + (q * batches)))) in
  let rng = Sm.of_ints seed 0x21bf 2 in
  let order = Array.copy dealt and pos = ref zipf_block in
  fun () ->
    if !pos = zipf_block then begin
      Array.blit dealt 0 order 0 batches;
      shuffle rng order;
      pos := 0
    end;
    incr pos;
    order.((!pos - 1) / batch).((!pos - 1) mod batch)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The server compiles and launches inside [submit], where the bench
   cannot place spans. Replay each requested kernel once through the
   staged copy, the real compile and a launch, and weight the times by
   how often the server compiled or launched that kernel. Returns the
   span totals of [sp] plus the weighted stage and launch times, the
   weighted real-compile time and the number of drifted kernels. *)
let replay_serve sp kernels ~requests_k ~compiles_k =
  let totals = Spans.totals sp in
  let add name v =
    Hashtbl.replace totals name (v +. Option.value (Hashtbl.find_opt totals name) ~default:0.0)
  in
  let real = ref 0.0 and drifted = ref 0 in
  Array.iteri
    (fun k kernel ->
      if requests_k.(k) > 0 then begin
        let options, run = one_shot kernel.request in
        let source = kernel.request.P.source in
        let stages = Spans.create () in
        let copy () = Stages.compile stages options ~source in
        let real_compile () =
          let t0 = now () in
          let c = C.compile options ~source in
          (c, now () -. t0)
        in
        let copy, (real_c, real_s) =
          if k mod 2 = 0 then
            let c = copy () in
            (c, real_compile ())
          else
            let r = real_compile () in
            (copy (), r)
        in
        (match Stages.drift ~copy ~real:real_c with
        | None -> ()
        | Some msg ->
          incr drifted;
          report_failure kernel.klabel ("pipeline copy drifted from Core.Compile: " ^ msg));
        let weight = float_of_int compiles_k.(k) in
        Hashtbl.iter (fun name s -> add name (weight *. s)) (Spans.totals stages);
        real := !real +. (weight *. real_s);
        let t0 = now () in
        ignore (run real_c);
        add "simt.launch" (float_of_int requests_k.(k) *. (now () -. t0))
      end)
    kernels;
  (totals, !real, !drifted)

let run_serve ~budget ~prefix ~tracer ~dir ~seed (kernels : kernel array) =
  let prefix = (prefix + batch - 1) / batch * batch in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let server =
    Serve.Server.create ~cache_capacity:serve_capacity ~max_issues:serve_max_issues
      ~persist_dir:dir ()
  in
  let n = Array.length kernels in
  let draw = zipf_schedule ~seed n in
  let requests_k = Array.make n 0 and compiles_k = Array.make n 0 in
  let prefix_requests_k = Array.make n 0 and prefix_compiles_k = Array.make n 0 in
  let stored = Array.make n false in
  let timing = new_timing () in
  let counts = ref no_serve and prefix_rss = ref nan in
  let busy = ref 0.0 and failed = ref 0 and ops = ref 0 in
  let wrap name f = Spans.wrap tracer name f in
  while running budget ~round:batch ~prefix ~ops:!ops ~busy:!busy do
    let first = !ops in
    let ks = List.init batch (fun _ -> draw ()) in
    let lines =
      List.mapi
        (fun j k -> P.print_command (P.Run { kernels.(k).request with P.id = first + j }))
        ks
    in
    Option.iter (fun sp -> Spans.set_op sp (first / batch)) tracer;
    let t0 = now () in
    let responses =
      wrap "op" (fun () ->
          let commands =
            List.filter_map
              (fun line -> Result.to_option (wrap "serve.parse" (fun () -> P.parse_command line)))
              lines
          in
          let responses = wrap "serve.submit" (fun () -> Serve.Server.submit server commands) in
          ignore
            (Sys.opaque_identity
               (List.map (fun r -> wrap "serve.print" (fun () -> P.print_response r)) responses));
          responses)
    in
    let dt = now () -. t0 in
    ops := !ops + batch;
    busy := !busy +. dt;
    let ok = List.filter_map (function P.Ok_run r -> Some r | _ -> None) responses in
    let issues = List.fold_left (fun acc r -> acc + r.P.issues) 0 ok in
    add_op timing ~ops:batch ~dt ~issues;
    end_round timing;
    Option.iter
      (fun sp ->
        Spans.note sp
          ~label:(String.concat "," (List.map (fun k -> kernels.(k).klabel) ks))
          [
            ("issues", issues);
            ("hits", List.length (List.filter (fun r -> r.P.cache = P.Hit) ok));
          ])
      tracer;
    let responses = Array.of_list responses in
    List.iteri
      (fun j k ->
        let id = first + j and kernel = kernels.(k) in
        let expected, digest = Lazy.force kernel.reference in
        let m = expected.Core.Runner.metrics in
        match if j < Array.length responses then Some responses.(j) else None with
        | Some (P.Ok_run r)
          when r.P.rid = id && r.P.digest = digest
               && r.P.cycles = m.Simt.Metrics.cycles
               && r.P.issues = m.Simt.Metrics.issues ->
          requests_k.(k) <- requests_k.(k) + 1;
          (* The first miss on a kernel is a compile; later misses load
             from the persist store, except the rare one forced by an
             eviction inside the same batch, which serve.compiles counts
             but these replay weights do not. *)
          let compiled = r.P.cache = P.Miss && not stored.(k) in
          if compiled then begin
            stored.(k) <- true;
            compiles_k.(k) <- compiles_k.(k) + 1
          end;
          if id < prefix then begin
            prefix_requests_k.(k) <- prefix_requests_k.(k) + 1;
            if compiled then prefix_compiles_k.(k) <- prefix_compiles_k.(k) + 1
          end
        | Some resp ->
          incr failed;
          report_failure
            (Printf.sprintf "request %d (%s)" id kernel.klabel)
            ("response differs from the one-shot launch: " ^ P.print_response resp)
        | None ->
          incr failed;
          report_failure (Printf.sprintf "request %d (%s)" id kernel.klabel) "no response")
      ks;
    if first < prefix && !ops >= prefix then begin
      prefix_rss := peak_rss_mb ();
      let hits = Serve.Server.cache_hits server and misses = Serve.Server.cache_misses server in
      let phits = Serve.Server.persist_hits server in
      counts :=
        {
          hit_rate = ratio hits (hits + misses);
          evictions = Serve.Server.cache_evictions server;
          persist_rate = ratio phits misses;
          server_compiles = misses - phits;
        }
    end
  done;
  (* Every request was checked against its kernel's one-shot reference,
     so the prefix's counts are the references' counts, weighted. *)
  let exact = new_sim () and code = new_code () in
  Array.iteri
    (fun k kernel ->
      if prefix_requests_k.(k) > 0 then begin
        let expected, _ = Lazy.force kernel.reference in
        add_outcome ~times:prefix_requests_k.(k) exact expected;
        add_compiled ~times:prefix_compiles_k.(k) code ~source:kernel.request.P.source
          expected.Core.Runner.compiled
      end)
    kernels;
  let totals, real, drift_failures =
    match tracer with
    | None -> (Hashtbl.create 1, 0.0, 0)
    | Some sp -> replay_serve sp kernels ~requests_k ~compiles_k
  in
  {
    attempted = !ops;
    failed = !failed + drift_failures;
    windows = windows timing;
    samples = sorted timing.samples;
    prefix_rss = !prefix_rss;
    exact;
    code;
    served = !counts;
    totals;
    real_compile = real;
  }

(* ---- workloads ---- *)

type instance = Jobs of job array | Kernels of kernel array

type workload = {
  wname : string;
  round : int; (* ops in one round of the op mix; timed phases stop between rounds *)
  prefix : int; (* ops the exact metrics are summed over *)
  domains : int; (* SPECRECON_DOMAINS for the run *)
  prepare : seed:int -> warm:int -> instance;
      (* input generation and a warm-up of at most [warm] ops: the set-up *)
}

(* fuzz-compile's programs. The exact prefix is the whole pool: the
   generator's cost tail is long, so only a sum over every program is
   the same in every order. *)
let fuzz_pool = 2000

(* Ops in one paper-eval pass: 23 with today's registry. *)
let paper_pass =
  (2 * List.length Workloads.Registry.all) + List.length Workloads.Registry.auto_subjects

(* Every exact prefix is a whole number of rounds of a fixed op set, so
   the exact metrics read the same under every seed. *)
let workloads =
  [
    {
      wname = "paper-eval";
      round = paper_pass;
      prefix = paper_eval_passes * paper_pass;
      domains = 1;
      prepare =
        (fun ~seed ~warm ->
          let jobs = order ~seed ~chunk:paper_pass (paper_eval_jobs ()) in
          warm_up jobs (min warm paper_pass);
          Jobs jobs);
    };
    {
      wname = "fuzz-compile";
      round = 1;
      prefix = fuzz_pool;
      domains = 1;
      prepare =
        (fun ~seed ~warm ->
          let jobs = order ~seed ~chunk:fuzz_pool (fuzz_jobs ~count:fuzz_pool) in
          warm_up jobs (min warm 20);
          Jobs jobs);
    };
    {
      wname = "large-kernel";
      round = List.length large_sizes;
      prefix = 10 * List.length large_sizes;
      domains = 1;
      prepare =
        (fun ~seed ~warm ->
          let jobs = large_jobs ~seed ~passes:10 in
          warm_up jobs (min warm (List.length large_sizes));
          Jobs jobs);
    };
    {
      wname = "serve-zipf";
      round = batch;
      prefix = zipf_block;
      (* The server's batch path: Support.Domain_pool compiles and
         launches a batch's requests in parallel. *)
      domains = 2;
      prepare = (fun ~seed ~warm -> Kernels (serve_kernels ~seed ~warm));
    };
  ]

let find_workload name = List.find_opt (fun w -> String.equal w.wname name) workloads

(* ---- one workload in this process ---- *)

type settings = {
  seed : int;
  budget : budget;
  trace : bool;
  out_dir : string;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_line w (m : metric) v =
  Printf.printf "%s %s %s %s\n" w m.name
    (if m.exact then Printf.sprintf "%.17g" v else Printf.sprintf "%.6g" v)
    m.unit

let lookup table (m : metric) =
  match List.assoc_opt m.name table with
  | Some v -> v
  | None -> invalid_arg ("srbench: no value for " ^ m.name)

(* A JSON object of [metrics], each with its value from [table]. *)
let metrics_json table metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name (lookup table m) m.unit)
         metrics)
  ^ "}"

let setup_runs = 5

let run_one w s =
  Unix.putenv Support.Domain_pool.env_var (string_of_int w.domains);
  mkdir_p s.out_dir;
  (* Set-up runs [setup_runs] times and its median is the set-up metric;
     the last instance is the one measured. Each earlier instance is
     released and the heap compacted before the next is built, so
     peak_rss_mb sees one instance. A fixed-size (smoke) run checks
     outputs, not speed: it sets up once and skips the warm-up. *)
  let warm, runs = match s.budget with Ops _ -> (0, 1) | Seconds _ -> (max_int, setup_runs) in
  let setups = ref [] and instance = ref None in
  for _ = 1 to runs do
    instance := None;
    Gc.compact ();
    let t0 = now () in
    instance := Some (w.prepare ~seed:s.seed ~warm);
    setups := (now () -. t0) :: !setups
  done;
  let instance = Option.get !instance in
  let prefix = match s.budget with Ops n -> min n w.prefix | Seconds _ -> w.prefix in
  (* Reference digests, shared by both phases of a traced run. *)
  let refs = Hashtbl.create 64 in
  let run_phase ~budget ~prefix ~tracer tag =
    match instance with
    | Jobs jobs -> run_jobs ~budget ~round:w.round ~prefix ~tracer ~refs jobs
    | Kernels kernels ->
      let dir = Filename.concat s.out_dir (Printf.sprintf "persist-%d-%s" (Unix.getpid ()) tag) in
      run_serve ~budget ~prefix ~tracer ~dir ~seed:s.seed kernels
  in
  let phase_budget =
    match s.budget with Seconds x when s.trace -> Seconds (x /. 2.0) | b -> b
  in
  let plain = run_phase ~budget:phase_budget ~prefix ~tracer:None "plain" in
  let e2e =
    [
      ("setup_s", median !setups);
      ("ops_per_s", ops_per_s plain);
      ("latency_p50_ms", latency_ms 0.5 plain);
      ("latency_p95_ms", latency_ms 0.95 plain);
      ("sim_issues_per_s", issues_per_s plain);
      ("simt_efficiency", ratio plain.exact.active plain.exact.lanes);
      ("sim_cycles", float_of_int plain.exact.cycles);
      ("peak_rss_mb", plain.prefix_rss);
    ]
  in
  let traced, layers =
    if not s.trace then (None, [])
    else begin
      (* The traced phase needs no prefix: the counts come from the
         untraced phase's. *)
      let sp = Spans.create () in
      let traced = run_phase ~budget:phase_budget ~prefix:0 ~tracer:(Some sp) "traced" in
      let layers =
        layer_metrics ~counts:plain ~times:traced
        @ [ ("trace.overhead", fratio (ops_per_s plain) (ops_per_s traced)) ]
      in
      let path = Filename.concat s.out_dir (Printf.sprintf "trace-%s.json" w.wname) in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "{\"workload\": %S, \"seed\": %d,\n\"metrics\": %s,\n" w.wname s.seed
            (metrics_json layers per_layer);
          Spans.output_json oc sp;
          output_string oc "}\n");
      (Some traced, layers)
    end
  in
  let attempted = plain.attempted + Option.fold ~none:0 ~some:(fun p -> p.attempted) traced in
  let failed = plain.failed + Option.fold ~none:0 ~some:(fun p -> p.failed) traced in
  let values = e2e @ (("failed_frac", ratio failed attempted) :: layers) in
  List.iter (fun m -> print_line w.wname m (lookup values m)) (printed ~trace:s.trace);
  let correct = failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct
    attempted failed
    (metrics_json values (if s.trace then per_layer else end_to_end));
  if correct then 0 else 1

(* ---- several workloads, one child process each ---- *)

type report = { lines : (string * string) list; (* metric name, printed value *) ok : bool }

(* Run one workload in a child process and validate what it printed:
   every line before the last must be a known metric with its unit, the
   last line the JSON result, and every metric the run owes must be
   there. *)
let run_child w s =
  let args =
    [ "--workload"; w.wname; "--seed"; string_of_int s.seed;
      "--trace"; (if s.trace then "1" else "0");
      "--out-dir"; s.out_dir ]
    @
    match s.budget with
    | Ops n -> [ "--ops"; string_of_int n ]
    | Seconds x -> [ "--seconds"; Printf.sprintf "%g" x ]
  in
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let output = In_channel.input_all ic in
  In_channel.close ic;
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' output) in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let metric_lines, json =
    match List.rev lines with
    | last :: rest when String.length last > 0 && last.[0] = '{' -> (List.rev rest, Some last)
    | _ -> (lines, None)
  in
  let parsed =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ wl; name; value; unit ] when String.equal wl w.wname -> (
          match (find_metric name, float_of_string_opt value) with
          | Some m, Some _ when String.equal m.unit unit -> Some (name, value)
          | _ ->
            problem ("bad metric line: " ^ line);
            None)
        | _ ->
          problem ("unparsable line: " ^ line);
          None)
      metric_lines
  in
  List.iter
    (fun m -> if not (List.mem_assoc m.name parsed) then problem ("missing metric " ^ m.name))
    (printed ~trace:s.trace);
  (match json with
  | Some j when String.starts_with ~prefix:"{\"correct\": true" j -> ()
  | Some _ -> problem "result reports incorrect output"
  | None -> problem "no JSON result line");
  (match status with Unix.WEXITED 0 -> () | _ -> problem "child exited nonzero");
  List.iter (fun p -> Printf.eprintf "srbench: %s: %s\n%!" w.wname p) (List.rev !problems);
  { lines = parsed; ok = !problems = [] }

let run_all s =
  let ok =
    List.fold_left
      (fun ok w ->
        let r = run_child w s in
        List.iter
          (fun (name, value) ->
            match find_metric name with
            | Some m -> Printf.printf "%s %s %s %s\n%!" w.wname name value m.unit
            | None -> ())
          r.lines;
        ok && r.ok)
      true workloads
  in
  if ok then 0 else 1

let smoke_ops = 8

(* Each workload twice at smoke size with one seed, traced: every exact
   metric must print the same bytes both times. *)
let check_determinism s =
  let s = { s with budget = Ops smoke_ops; trace = true } in
  let ok =
    List.fold_left
      (fun ok w ->
        let a = run_child w s and b = run_child w s in
        let differing =
          List.filter
            (fun (m : metric) ->
              m.exact && List.assoc_opt m.name a.lines <> List.assoc_opt m.name b.lines)
            all_metrics
        in
        List.iter
          (fun m ->
            Printf.eprintf "srbench: %s: %s differs between runs: %s vs %s\n%!" w.wname m.name
              (Option.value (List.assoc_opt m.name a.lines) ~default:"-")
              (Option.value (List.assoc_opt m.name b.lines) ~default:"-"))
          differing;
        let good = a.ok && b.ok && differing = [] in
        Printf.printf "determinism %s %s (%d exact metrics)\n%!" w.wname
          (if good then "ok" else "FAILED")
          (List.length (List.filter (fun (m : metric) -> m.exact) all_metrics));
        ok && good)
      true workloads
  in
  if ok then 0 else 1

(* ---- command line ---- *)

let () =
  let workload = ref None and all = ref false and determinism = ref false in
  let seed = ref 17 and seconds = ref 20.0 and trace = ref false and ops = ref None in
  let out_dir = ref (Filename.concat "_build" "srbench") in
  let names = String.concat "|" (List.map (fun w -> w.wname) workloads) in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        names ^ "  run one workload in this process" );
      ("--all", Arg.Set all, " run every workload, each in its own child process");
      ("--check-determinism", Arg.Set determinism,
       " run every workload twice at smoke size and compare the exact metrics");
      ( "--seed",
        Arg.Set_int seed,
        "N  input seed (default 17; 29 is held out for verifying claims)" );
      ("--seconds", Arg.Set_float seconds, "S  op time to measure (default 20)");
      ("--trace", Arg.Int (fun t -> trace := t <> 0),
       "0|1  report per-layer metrics from a traced pass (default 0)");
      ("--ops", Arg.Int (fun n -> ops := Some n), "N  measure exactly N ops instead of --seconds");
      ( "--out-dir",
        Arg.Set_string out_dir,
        "DIR  trace files and scratch (default _build/srbench)" );
    ]
  in
  let usage = "srbench (--workload NAME | --all | --check-determinism) [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let budget =
    match !ops with
    | Some n when n >= 1 -> Ops n
    | None when !seconds > 0.0 -> Seconds !seconds
    | _ ->
      prerr_endline "srbench: --ops and --seconds must be positive";
      exit 2
  in
  let s = { seed = !seed; budget; trace = !trace; out_dir = !out_dir } in
  let code =
    match (!workload, !all, !determinism) with
    | Some name, false, false -> (
      match find_workload name with
      | Some w -> run_one w s
      | None ->
        Printf.eprintf "srbench: unknown workload %S (one of %s)\n" name names;
        2)
    | None, true, false -> run_all s
    | None, false, true -> check_determinism s
    | _ ->
      prerr_endline usage;
      2
  in
  exit code
