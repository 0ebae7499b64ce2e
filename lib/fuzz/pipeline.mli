(** The compilation pipeline, staged for oracle checking.

    Mirrors {!Core.Compile.compile_ast} for the two modes the paper
    differentiates — PDOM-only baseline (§2) and speculative reconvergence
    with dynamic deconfliction (§4) — but runs {!Ir.Verifier} after every
    pass and tags failures with the stage that caused them, so a fuzzing
    campaign can report {e which} layer broke instead of a bare [Failure].
    The barrier ranking and speculative provenance are the compiler's
    own ({!Core.Compile.make_priority}, {!Core.Compile.speculative_meta}),
    so the fuzzer tests what ships.

    [~deconflict:false] skips §4.3's deconfliction on the speculative
    pipeline. That is exactly the configuration the paper calls unsafe
    (conflicting barriers deadlock), and the test suite uses it to prove
    the deadlock is real and that Deconflict removes it. *)

type mode = Baseline | Specrecon

val mode_name : mode -> string

exception Stage_error of string * string
(** [(stage, message)]: the pass raised, or the verifier found structural
    errors after it. Stages: ["lower"], ["specrecon"], ["interproc"],
    ["pdom_sync"], ["deconflict"], ["cleanup"], ["srlint"],
    ["srrace"], ["linearize"], ["decode"]. *)

type staged = {
  program : Ir.Types.program;
  linear : Ir.Linear.t;
  decoded : Ir.Decoded.t;  (** what the interpreter executes *)
  resolutions : int;  (** deconfliction resolutions applied (0 for baseline) *)
  lint : Analysis.Barrier_safety.finding list;
      (** static barrier-safety findings on the final program; reported
          as data (never raised) so the oracles can check them against
          the simulator's verdict *)
  race : Analysis.Race_safety.finding list;
      (** static data-race findings on the final program (this mode's
          placement, no PDOM diffing) — what the race oracles hold
          against the shadow-memory logger *)
  speculative : Analysis.Barrier_safety.speculative list;
      (** speculative-barrier provenance the lint stage checked under;
          the repair oracles pass it to {!Analysis.Barrier_repair} *)
}

(** [compile ~mode ast] lowers and runs the mode's synchronization passes,
    verifying after each stage. [~deconflict:false] skips deconfliction
    entirely; [~deconflict_call_waits:false] keeps the pass but ablates
    its call-as-wait modeling (the PR 2 blindness).
    @raise Stage_error as documented. *)
val compile :
  ?deconflict:bool -> ?deconflict_call_waits:bool -> mode:mode -> Front.Ast.program -> staged
