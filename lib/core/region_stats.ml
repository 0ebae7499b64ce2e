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
let in_region (compiled : Compile.compiled) =
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
  fun ~func ~block -> Hashtbl.mem table (func, block)

let of_outcome (o : Runner.outcome) =
  let in_region = in_region o.compiled in
  let inside =
    Array.map
      (fun (l : Ir.Linear.location) -> in_region ~func:l.in_func ~block:l.in_block)
      o.compiled.decoded.Ir.Decoded.linear.Ir.Linear.locs
  in
  let sum column side =
    let acc = ref 0 in
    Array.iteri (fun pc n -> if inside.(pc) = side then acc := !acc + n) column;
    !acc
  in
  {
    region_issues = sum o.pc_issues true;
    region_active = sum o.pc_lanes true;
    other_issues = sum o.pc_issues false;
    other_active = sum o.pc_lanes false;
    warp_size = o.metrics.Simt.Metrics.warp_size;
  }

let pp ppf t =
  Format.fprintf ppf
    "common-code region: %5.1f%% efficiency over %d issues; elsewhere: %5.1f%% over %d issues"
    (100.0 *. region_efficiency t)
    t.region_issues
    (100.0 *. other_efficiency t)
    t.other_issues
