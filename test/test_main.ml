(* Test entry point: every suite from every layer of the stack. *)

let () =
  Alcotest.run "specrecon"
    (Test_support.tests @ Test_ir.tests @ Test_decoded.tests @ Test_front.tests @ Test_analysis.tests
   @ Test_passes.tests @ Test_simt.tests @ Test_opt.tests @ Test_workloads.tests
   @ Test_integration.tests @ Test_differential.tests @ Test_fuzz.tests
   @ Test_determinism.tests @ Test_lint.tests @ Test_race.tests @ Test_repair.tests
   @ Test_cli.tests @ Test_serve.tests @ Test_identity.tests)
