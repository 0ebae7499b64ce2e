(* Loop Merge on RSBench (Figure 3 of the paper).

   Walks through the full methodology: the one-task-per-thread kernel is
   thread-coarsened into a tasks-loop, the user's Predict hint (hoisted
   outside the task loop) turns the divergent-trip inner loop into the
   reconvergence point, and the compiler's synchronization — including
   dynamic deconfliction against the PDOM barrier — produces the
   "repacked" execution of Figure 3(b).

   Run with: dune exec examples/loop_merge_rsbench.exe *)

let () =
  let spec = Workloads.Registry.find "rsbench" in
  Printf.printf "RSBench: %s\n\n" spec.Workloads.Spec.description;
  let baseline = Core.Runner.run_spec Core.Compile.baseline spec in
  let merged = Core.Runner.run_spec Core.Compile.speculative spec in
  let show label (o : Core.Runner.outcome) =
    Printf.printf "%-24s eff %5.1f%%  cycles %9d  issues %9d  barrier fires %6d\n" label
      (100.0 *. Core.Runner.efficiency o)
      o.Core.Runner.metrics.Simt.Metrics.cycles o.Core.Runner.metrics.Simt.Metrics.issues
      o.Core.Runner.metrics.Simt.Metrics.barrier_fires
  in
  show "PDOM baseline" baseline;
  show "Loop Merge (specrecon)" merged;
  Printf.printf "\nspeedup: %.2fx\n\n" (Core.Runner.speedup ~baseline ~optimized:merged);
  print_endline "Synchronization inserted by the compiler:";
  List.iter
    (fun a -> Format.printf "  %a@." Passes.Specrecon.pp_applied a)
    merged.compiled.Core.Compile.applied;
  (match merged.compiled.Core.Compile.deconflict_report with
  | Some r ->
    List.iter
      (fun (res : Passes.Deconflict.resolution) ->
        Printf.printf
          "  dynamic deconfliction: user barrier b%d kept, PDOM barrier b%d cancelled at the \
           reconvergence point\n"
          res.kept res.demoted)
      r.resolutions
  | None -> ());
  (* Show the inner-loop block profile: with Loop Merge the inner body
     runs in far fewer, far fuller issues. *)
  let total_lane_execs (o : Core.Runner.outcome) =
    (* lane-executions recorded per block; the kernel function holds them *)
    let p = Core.Runner.profile o in
    let acc = ref 0 in
    Hashtbl.iter
      (fun _ (f : Ir.Types.func) ->
        Ir.Types.iter_blocks f (fun b ->
            acc := !acc + Analysis.Profile.count p ~func:f.Ir.Types.fname ~block:b.Ir.Types.id))
      o.compiled.Core.Compile.program.Ir.Types.funcs;
    !acc
  in
  Printf.printf "\nper-block lane executions (baseline %d, merged %d) — identical work,\n"
    (total_lane_execs baseline) (total_lane_execs merged);
  print_endline "repacked into fewer, fuller warp issues.\n";
  (* Where did the efficiency go? Split it by region (§5.2: gains land in
     the compute-intensive common code; the prolog/epilog pays). *)
  Format.printf "with Loop Merge:  %a@." Core.Region_stats.pp (Core.Region_stats.of_outcome merged)
