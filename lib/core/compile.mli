(** The compilation pipeline: MiniSIMT source to executable linear code,
    under one of the paper's compilation modes.

    - {!Baseline} — what production compilers do today: PDOM
      reconvergence at every divergent branch; Predict hints ignored.
    - {!Speculative} — the paper's contribution (§4): user hints compiled
      by {!Passes.Specrecon} / {!Passes.Interproc}, PDOM sync inserted as
      usual, conflicts resolved by the chosen deconfliction strategy
      (the paper's evaluation uses dynamic deconfliction, §5).
    - {!Automatic} — §4.5: hints discovered by {!Passes.Auto_detect}
      instead of the programmer, then compiled identically.
    - {!No_sync} — no reconvergence at all; a lower-bound reference used
      by tests.

    The soft-barrier threshold (§4.6) can be overridden per compile, which
    is how the Figure-9 sweep drives one source through thresholds 0..32. *)

type mode =
  | No_sync
  | Baseline
  | Speculative of Passes.Deconflict.strategy
  | Automatic of {
      params : Passes.Auto_detect.params;
      strategy : Passes.Deconflict.strategy;
      profile : Analysis.Profile.t option; (* optional profile guidance *)
    }

type threshold_override =
  | Keep  (** use the thresholds written in the source *)
  | Set of int  (** force every label hint to a soft barrier with this threshold *)
  | Unset  (** force hard (full) barriers everywhere *)

(** Opt-in repair stage (srcc [--fix] / [--fix-dry-run]): when barrier
    safety findings survive deconfliction, run {!Analysis.Barrier_repair}
    over them before the lint gate. *)
type repair_mode =
  | No_repair
  | Repair of {
      dry_run : bool;
          (** synthesize and report the edit plan but keep the original
              program — findings still reach the lint gate *)
      max_edits : int;  (** search budget, {!Analysis.Barrier_repair.default_max_edits} *)
    }

type options = {
  mode : mode;
  coarsen : int option;
  threshold : threshold_override;
  cleanup : bool;
      (** run {!Passes.Cleanup} (DCE + dead-barrier removal) after the
          synchronization passes; on by default *)
  deconflict : bool;
      (** run {!Passes.Deconflict} in the speculative/automatic modes; on
          by default. Turning it off (srcc/srrun [--no-deconflict])
          deliberately ships conflicting barrier placements — the
          fault-injection and yield-recovery harness uses this to
          exercise the simulator's degraded-mode behaviour. *)
  lint : bool;
      (** treat {!Analysis.Barrier_safety} findings as a hard error
          ([Failure]); when false they come back as data in
          {!compiled.lint_findings}, and the caller reports them (srcc
          and srrun print them as warnings under [--no-lint]). The
          checker always runs. *)
  race : bool;
      (** run {!Analysis.Race_safety} after the lint gate; on by
          default, off under srcc's [--no-race]. Unlike lint, findings
          never raise — they are reported in {!compiled.race_findings}
          and the caller decides severity (a race can be source-level,
          present under every placement). In the speculative/automatic
          modes, findings absent under the PDOM placement of the same
          source are upgraded to [race-introduced]. *)
  repair : repair_mode;
      (** attempt {!Analysis.Barrier_repair} on findings before the lint
          gate; [No_repair] by default. An accepted (non-dry-run) repair
          replaces the program and compiles clean; dry runs and
          unrepairable programs fall through to the gate unchanged, the
          latter with the blocking finding appended to the error. *)
}

val baseline : options
val speculative : options (* dynamic deconfliction, source thresholds *)
val automatic : options

(** Every mode by the name srcc, srrun and the serve protocol spell it,
    in the order the protocol's error text lists them:
    [baseline|none|specrecon|specrecon-static|auto]. *)
val modes : (string * mode) list

(** The threshold flag's rule (srcc, srrun and the protocol's
    [threshold=]): absent keeps the source's thresholds, a negative value
    forces hard barriers, anything else sets that threshold. *)
val threshold_of_option : int option -> threshold_override

(** What the repair stage did, when {!options.repair} enabled it. *)
type repair_report = {
  pre_findings : Analysis.Barrier_safety.finding list;
      (** findings before repair (what [--fix] was asked to clear) *)
  outcome : Analysis.Barrier_repair.outcome;
  before : Ir.Linear.t;
      (** linearized pre-repair program, for the before/after diff *)
}

type compiled = {
  options : options;
  program : Ir.Types.program;
  linear : Ir.Linear.t;
  decoded : Ir.Decoded.t;  (** what {!Simt.Interp.run} executes *)
  pdom_barriers : (string * int * Ir.Types.barrier) list;
  applied : Passes.Specrecon.applied list;
  interproc_applied : Passes.Interproc.applied list;
  deconflict_report : Passes.Deconflict.report option;
  candidates : Passes.Auto_detect.candidate list; (* automatic mode only *)
  lint_findings : Analysis.Barrier_safety.finding list;
      (* barrier-safety findings ([] unless lint=false let them through,
         or a repair cleared them) *)
  race_findings : Analysis.Race_safety.finding list;
      (* static data-race findings over all kernels, PDOM-diffed in the
         speculative modes; [] when options.race = false *)
  repair_report : repair_report option; (* present iff options.repair <> No_repair *)
}

(** {2 Stage helpers}

    The pieces of the speculative sequence a caller needs to rebuild one
    stage by hand, as the call-wait ablation test does. *)

(** [make_priority ~applied ~interproc ~pdom] ranks barriers for
    {!Passes.Deconflict} (§4.1): user hints beat region barriers beat
    compiler PDOM barriers. *)
val make_priority :
  applied:Passes.Specrecon.applied list ->
  interproc:Passes.Interproc.applied list ->
  pdom:(string * int * Ir.Types.barrier) list ->
  string ->
  Ir.Types.barrier ->
  int

(** Every speculative barrier the passes placed, with the block holding
    its join: the provenance srlint's dominance rule checks under. *)
val speculative_meta :
  applied:Passes.Specrecon.applied list ->
  interproc:Passes.Interproc.applied list ->
  Analysis.Barrier_safety.speculative list

(** {2 The stage sequence}

    [compile] runs these stages, in this order; each runs only when the
    options ask for it:
    - [parse] ({!compile} only);
    - [coarsen] (when [coarsen] is set);
    - [lower];
    - [detect]: threshold override, hint stripping (baseline, none,
      automatic) and {!Passes.Auto_detect} (automatic);
    - [specrecon], [interproc] (speculative and automatic);
    - [pdom_sync] (every mode but none);
    - [deconflict] (speculative and automatic, when [deconflict]);
    - [cleanup] (when [cleanup]);
    - [verify];
    - [lint]: {!Analysis.Barrier_safety}, then the [repair] stage nested
      inside it (when [repair] asks), then the gate (when [lint]);
    - [race] (when [race]), with [race.rebuild] nested inside it when
      speculative findings need the PDOM placement to diff against;
    - [linearize];
    - [decode]. *)

(** Watches one compile. [stage name thunk] wraps every stage and must
    run [thunk] exactly once and return its result, or raise. [after name
    program] sees the program once a stage that rewrites it returns: after
    [lower], [detect], [specrecon], [interproc], [pdom_sync],
    [deconflict], [cleanup], and an accepted, non-dry-run [repair] (whose
    program replaces the original). *)
type observer = {
  stage : 'a. string -> (unit -> 'a) -> 'a;
  after : string -> Ir.Types.program -> unit;
}

(** [compile options ~source] runs the stage sequence above. Without
    [observe] nothing watches it. Nothing is printed: lint findings let
    through by [lint = false] are in {!compiled.lint_findings}.
    @raise Front.Parser.Parse_error / Front.Lower.Lower_error / Failure. *)
val compile : ?observe:observer -> options -> source:string -> compiled

(** Same from an already-parsed AST (no [parse] stage). *)
val compile_ast : ?observe:observer -> options -> Front.Ast.program -> compiled
