type outcome = {
  compiled : Compile.compiled;
  metrics : Simt.Metrics.t;
  profile : Analysis.Profile.t;
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
    profile = result.Simt.Interp.profile;
    memory = result.Simt.Interp.memory;
    check = Ok ();
  }

let compile_spec config options (spec : Workloads.Spec.t) =
  let options =
    match options.Compile.coarsen with
    | Some _ -> options
    | None -> { options with Compile.coarsen = spec.coarsen }
  in
  (spec.tweak_config config, Compile.compile options ~source:spec.source)

let run_spec ?(config = Simt.Config.default) options (spec : Workloads.Spec.t) =
  let config, compiled = compile_spec config options spec in
  let outcome = launch ~config ~init:spec.init compiled ~args:spec.args in
  { outcome with check = spec.check compiled.Compile.program outcome.memory }

let run_source ?config ?init options ~source ~args =
  launch ?config ?init (Compile.compile options ~source) ~args

let speedup ~baseline ~optimized =
  let b = float_of_int baseline.metrics.Simt.Metrics.cycles in
  let o = float_of_int optimized.metrics.Simt.Metrics.cycles in
  if o = 0.0 then 0.0 else b /. o
