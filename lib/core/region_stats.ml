type t = {
  region_issues : int;
  region_active : int;
  other_issues : int;
  other_active : int;
  warp_size : int;
}

let region_efficiency t =
  if t.region_issues = 0 then 0.0
  else float_of_int t.region_active /. float_of_int (t.region_issues * t.warp_size)

let other_efficiency t =
  if t.other_issues = 0 then 0.0
  else float_of_int t.other_active /. float_of_int (t.other_issues * t.warp_size)

(* The common-code region of a label hint: blocks dominated by the target
   block; of a callee hint: the whole callee body. *)
let region_blocks (compiled : Compile.compiled) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (a : Passes.Specrecon.applied) ->
      let f = Hashtbl.find compiled.program.Ir.Types.funcs a.in_func in
      let g = Analysis.Cfg.of_func f in
      let dom = Analysis.Dom.compute g in
      List.iter
        (fun b ->
          if Analysis.Dom.dominates dom a.target_block b then
            Hashtbl.replace table (a.in_func, b) ())
        (Analysis.Cfg.nodes g))
    compiled.applied;
  List.iter
    (fun (a : Passes.Interproc.applied) ->
      let callee = Hashtbl.find compiled.program.Ir.Types.funcs a.callee in
      Ir.Types.iter_blocks callee (fun b ->
          Hashtbl.replace table (a.callee, b.Ir.Types.id) ()))
    compiled.interproc_applied;
  table

let measure ?(config = Simt.Config.default) options (spec : Workloads.Spec.t) =
  let config, compiled = Runner.compile_spec config options spec in
  let regions = region_blocks compiled in
  let region_issues = ref 0 and region_active = ref 0 in
  let other_issues = ref 0 and other_active = ref 0 in
  let tracer (e : Simt.Interp.issue_event) =
    let loc = e.where in
    let n = List.length e.active in
    if Hashtbl.mem regions (loc.Ir.Linear.in_func, loc.Ir.Linear.in_block) then begin
      incr region_issues;
      region_active := !region_active + n
    end
    else begin
      incr other_issues;
      other_active := !other_active + n
    end
  in
  ignore
    (Simt.Interp.run ~tracer config compiled.decoded ~args:spec.args
       ~init_memory:(fun mem -> spec.init compiled.program mem));
  {
    region_issues = !region_issues;
    region_active = !region_active;
    other_issues = !other_issues;
    other_active = !other_active;
    warp_size = config.Simt.Config.warp_size;
  }

let pp ppf t =
  Format.fprintf ppf
    "common-code region: %5.1f%% efficiency over %d issues; elsewhere: %5.1f%% over %d issues"
    (100.0 *. region_efficiency t)
    t.region_issues
    (100.0 *. other_efficiency t)
    t.other_issues
