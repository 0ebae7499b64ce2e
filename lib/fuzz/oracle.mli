(** Differential oracles over one MiniSIMT program.

    [check] runs the full pipeline of correctness contracts this
    repository claims:

    + {b Round trip} — [Front.Parser.parse_string (Front.Pretty.to_string
      ast)] must be structurally equal to [ast] ({!Front.Pretty}'s
      documented contract).
    + {b Stage health} — both builds compile through
      {!Core.Compile.compile_ast} itself, with lint findings returned as
      data; an observer checks that lowering and every synchronization
      pass leave the IR {!Ir.Verifier}-clean, and names the stage that
      raised or broke it.
    + {b Mode/schedule independence} — the final memory image and the
      per-thread PRNG-stream consumption must be byte-identical between
      the PDOM-only baseline and the speculative-reconvergence
      compilation, under every scheduler policy (the {!Simt.Interp}
      determinism contract, §4.2–4.3 of the paper).
    + {b No deadlock, no runtime error} — a deconflicted program must
      never raise {!Simt.Interp.Deadlock}, and a generated program never
      {!Simt.Interp.Runtime_error}.
    + {b srlint soundness} — {!Analysis.Barrier_safety} must agree with
      the simulator: a deadlock on a checker-clean program is
      {!Lint_unsound} (a hole in the static abstraction); a finding on a
      program that completes under both modes and all three schedulers
      is {!Lint_spurious} (a false alarm that would break clean builds,
      since the checker is a mandatory {!Core.Compile} stage).
    + {b srrace differential} — every matrix cell runs under the
      shadow-memory race logger ({!Simt.Race_log}). A dynamic race on a
      mode whose static {!Analysis.Race_safety} pass came back clean is
      {!Race_unsound} (a hole in the access abstraction, raised at the
      offending cell); a static race finding on a program no cell of the
      whole matrix — both modes, all three schedulers — dynamically
      realizes is {!Race_spurious} (a false alarm that would break clean
      builds, since [srcc --race] gates on findings).
    + {b Serve fidelity} — every clean program is additionally submitted
      through an in-process srserved engine ({!Serve.Server}), cold
      (empty compile cache) then warm (artifact cached): each response
      line must be byte-identical to one rebuilt from the one-shot
      {!Core.Compile} + {!Core.Runner} stages, including the echoed
      cache counters — the warm pass must prove it really served the
      cached {!Ir.Decoded} artifact ({!Serve_mismatch} otherwise).

    With [~chaos:n > 0], a program that passes everything above also
    enters the {b chaos tier}: [n] seeded fault-injection plans
    ({!Simt.Faults} — scheduler perturbations, memory-latency spikes,
    spurious barrier releases, forced stalls) run against the
    speculative build with yield recovery enabled. Each faulted run must
    produce memory bit-identical to the unfaulted PDOM baseline
    ({!Chaos_divergence} otherwise), and — because only lint-clean
    programs reach this tier — must complete with {e zero} yields: a
    checker-clean program can never truly stall, so a yield is the
    watchdog misfiring ({!Spurious_yield}).

    Every tier — standard, chaos, serve and repair — enumerates its runs
    as cells of one matrix: a build, a machine config, an entry kernel
    and the label a verdict names the run by, row by row over the
    parameterless kernels (kernels with parameters are skipped — the
    oracle has no arguments to pass them). One classifier reads every
    run, and each tier keeps only its own predicates over the results.
    The chaos tier and the repair tier compare against the same PDOM
    reference image: the standard matrix's first cell for the kernel
    (baseline build, most-threads scheduler).

    Budget exhaustion ({!Simt.Interp.Out_of_budget}) is {e not} a
    violation in any tier, repair included: it is the fuzzer's liveness
    cap, reported as {!Limit} so a campaign can account for skipped
    programs honestly. *)

type kind =
  | Round_trip  (** pretty-printed source re-parses differently (or not at all) *)
  | Stage_failure  (** a pass raised, or left the IR verifier-unclean *)
  | Deadlock  (** conflicting barriers stalled the machine (srlint saw it too) *)
  | Runtime_error  (** type error, out-of-bounds access, division by zero *)
  | Result_divergence  (** memory images differ across modes/policies *)
  | Lint_unsound  (** simulator deadlocked on a program srlint passed as clean *)
  | Lint_spurious  (** srlint flagged a program that runs deadlock-free everywhere *)
  | Chaos_divergence
      (** a faulted yield-enabled run deadlocked, errored, or produced
          memory differing from the unfaulted PDOM baseline *)
  | Spurious_yield
      (** yield recovery fired on a checker-clean program under faults *)
  | Race_unsound
      (** the shadow-memory logger observed a data race in a matrix cell
          whose mode the static race checker passed as clean *)
  | Race_spurious
      (** srrace flagged a program that no cell of the whole run matrix
          dynamically races on, under any mode or scheduler *)
  | Serve_mismatch
      (** the srserved engine answered a request differently from the
          one-shot [Core.Compile] + [Core.Runner] pipeline — wrong
          metrics, wrong memory digest, or cache counters that do not
          match the cold-then-warm submission order *)
  | Serve_chaos
      (** a socket server under a seeded transport-fault plan
          ({!Serve.Faults}: torn lines, slow-loris sends, injected fuel
          budgets, vanishing clients) answered an undisturbed request
          differently from the clean server's byte-identical stream, or
          a fuel-faulted request with something other than the clean
          response or a well-formed [deadline] (see
          {!Serve_chaos.check_transport}) *)
  | Serve_persist
      (** a kill-9'd-then-restarted server over the same persistent
          store answered a replayed trace differently from its pre-kill
          run, failed to serve warm from the store, or mis-counted
          injected store corruption (see {!Serve_chaos.check_persist}) *)
  | Repair_unsound
      (** an accepted [--fix] repair failed its own contract: the
          repaired program is still flagged by srlint, fails the
          verifier, deadlocks or errors without yield under some
          scheduler, or produces memory differing from the unfaulted
          PDOM baseline *)
  | Repair_incomplete
      (** the repair pass produced no outcome for a flagged variant —
          it claimed the program was already clean while srlint
          disagreed (an unrepairable verdict naming the blocking finding
          is an acceptable outcome, not a violation) *)

val kind_name : kind -> string

type violation = { kind : kind; detail : string }

type verdict =
  | Ok_run  (** every oracle passed *)
  | Limit of string  (** a run exhausted the issue budget; program skipped *)
  | Violation of violation

val pp_verdict : Format.formatter -> verdict -> unit

(** The interpreter configurations the differential matrix uses: 2 warps
    of 32 threads ([Gen.n_threads] total) under each scheduler policy,
    in {!Simt.Config.policies}' order. *)
val policies : Simt.Config.policy list

val base_config : Simt.Config.t

(** Deterministic fill for the read-only [datai]/[dataf] input arrays —
    identical across modes because the global layout is fixed at lowering. *)
val init_memory : Ir.Types.program -> Simt.Memsys.t -> unit

(** Bit-exact memory image: float cells by IEEE bit pattern, tagged so an
    int and a float holding the same bits cannot alias. *)
val snapshot : Simt.Memsys.t -> (bool * int) array

(** Index of the first differing cell (or the shorter length on a size
    mismatch); [None] when the images are identical. *)
val first_diff : (bool * int) array -> (bool * int) array -> int option

(** The parameterless kernels — the entry points the run matrix can
    launch (there is nothing to pass the others). *)
val runnable_kernels : Ir.Linear.t -> Ir.Linear.finfo list

(** [check ast] runs every oracle and returns the first violation found
    (round trip, then staging, then the run matrix, then — for clean
    programs when [chaos > 0] — the fault-injection tier). [chaos_seed]
    (default [0xc4a05]) roots the per-plan fault seeds, so a campaign is
    replayed exactly by its [(seed, chaos, chaos_seed)] coordinates. *)
val check : ?max_issues:int -> ?chaos:int -> ?chaos_seed:int -> Front.Ast.program -> verdict

(** [check_repair ~id ast] runs the repair tier on one generated
    program: compile both modes; skip (as {!Limit}) if the unmutated
    program is already flagged; run the PDOM reference image of each
    kernel (a deadlock or runtime error there is reported under the
    standard tier's kinds); then for each of [variants] (default 3)
    seeded {!Misplace} mutants of the speculative build whose
    misplacement srlint flags, require {!Analysis.Barrier_repair} to
    either repair it — re-check clean, verifier-clean, deadlock-free
    without yield under all three schedulers, memory bit-identical to
    the unfaulted PDOM baseline ({!Repair_unsound} otherwise) — or
    report it unrepairable with the blocking finding named
    ({!Repair_incomplete} when it does neither). [id] distinguishes
    programs of one campaign in the mutation stream, whose root seed is
    fixed, so a repair campaign is replayed exactly by its
    [(seed, variants)] coordinates. *)
val check_repair :
  ?max_issues:int -> ?variants:int -> ?id:int -> Front.Ast.program -> verdict
