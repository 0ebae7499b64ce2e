(* Automatic Speculative Reconvergence (§4.5 / Figure 10).

   Runs the detector over the unannotated workloads, shows the candidates
   it finds (pattern kind, predicted reconvergence point, cost-model
   score) and measures the upside of compiling them automatically —
   including a profile-guided second pass, where block frequencies from a
   baseline run replace the cost model's static trip-count guesses.

   Run with: dune exec examples/auto_detect.exe *)

let () =
  List.iter
    (fun (spec : Workloads.Spec.t) ->
      Printf.printf "=== %s ===\n" spec.name;
      let baseline = Core.Runner.run_spec Core.Compile.baseline spec in
      let auto = Core.Runner.run_spec Core.Compile.automatic spec in
      print_endline "  detector candidates:";
      List.iter
        (fun c -> Format.printf "    %a@." Passes.Auto_detect.pp_candidate c)
        auto.compiled.Core.Compile.candidates;
      Printf.printf "  baseline eff %5.1f%% -> automatic eff %5.1f%%, speedup %.2fx\n"
        (100.0 *. Core.Runner.efficiency baseline)
        (100.0 *. Core.Runner.efficiency auto)
        (Core.Runner.speedup ~baseline ~optimized:auto);
      (* Profile-guided variant: feed the baseline run's block profile
         back into the detector ("profile information may help improve
         the accuracy of our profitability tests", §4.5). *)
      let profiled_options =
        {
          Core.Compile.automatic with
          Core.Compile.mode =
            Core.Compile.Automatic
              {
                params = Passes.Auto_detect.default_params;
                strategy = Passes.Deconflict.Dynamic;
                profile = Some (Core.Runner.profile baseline);
              };
        }
      in
      let profiled = Core.Runner.run_spec profiled_options spec in
      Printf.printf "  with profile guidance:              eff %5.1f%%, speedup %.2fx\n\n"
        (100.0 *. Core.Runner.efficiency profiled)
        (Core.Runner.speedup ~baseline ~optimized:profiled))
    Workloads.Registry.auto_subjects
