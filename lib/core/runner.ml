type outcome = {
  compiled : Compile.compiled;
  metrics : Simt.Metrics.t;
  pc_issues : int array;
  pc_lanes : int array;
  memory : Simt.Memsys.t;
  check : (unit, string) result;
}

let efficiency o = Simt.Metrics.simt_efficiency o.metrics
let cycles o = o.metrics.Simt.Metrics.cycles

(* The pure run stage: artifact in, outcome out. Everything the launch
   depends on is an argument, so a cached artifact and a fresh compile
   behave identically here (the srserved contract). *)
let launch ?(config = Simt.Config.default) ?(init = fun _ _ -> ()) ?faults ?race ?entry
    (compiled : Compile.compiled) ~args =
  let result =
    Simt.Interp.run ?faults ?race ?entry config compiled.Compile.decoded ~args
      ~init_memory:(fun mem -> init compiled.Compile.program mem)
  in
  {
    compiled;
    metrics = result.Simt.Interp.metrics;
    pc_issues = result.Simt.Interp.pc_issues;
    pc_lanes = result.Simt.Interp.pc_lanes;
    memory = result.Simt.Interp.memory;
    check = Ok ();
  }

(* A block's lane executions are the lanes issued at its first pc. *)
let profile o =
  let p = Analysis.Profile.empty () in
  let locs = o.compiled.Compile.decoded.Ir.Decoded.linear.Ir.Linear.locs in
  Array.iteri
    (fun pc n ->
      let { Ir.Linear.in_func; in_block } = locs.(pc) in
      if n > 0 && (pc = 0 || locs.(pc - 1) <> locs.(pc)) then
        Analysis.Profile.record p ~func:in_func ~block:in_block ~count:n)
    o.pc_lanes;
  p

let run_spec ?(config = Simt.Config.default) options (spec : Workloads.Spec.t) =
  let options =
    match options.Compile.coarsen with
    | Some _ -> options
    | None -> { options with Compile.coarsen = spec.coarsen }
  in
  let config = spec.tweak_config config in
  let compiled = Compile.compile options ~source:spec.source in
  let outcome = launch ~config ~init:spec.init compiled ~args:spec.args in
  { outcome with check = spec.check compiled.Compile.program outcome.memory }

let run_source ?config ?init options ~source ~args =
  launch ?config ?init (Compile.compile options ~source) ~args

let speedup ~baseline ~optimized =
  let b = float_of_int baseline.metrics.Simt.Metrics.cycles in
  let o = float_of_int optimized.metrics.Simt.Metrics.cycles in
  if o = 0.0 then 0.0 else b /. o
