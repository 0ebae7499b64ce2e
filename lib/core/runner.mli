(** The execute stage behind every driver.

    {!launch} is the pure run stage: it takes an already-compiled
    artifact and a launch configuration and produces an outcome, with no
    I/O, no global state and no dependence on where the artifact came
    from — a fresh {!Compile.compile} and a compile-cache hit are
    indistinguishable here, which is the property the srserved
    differential tier leans on. {!run_spec} and {!run_source} are the
    one-shot conveniences composing compile + launch. *)

(** [pc_issues] and [pc_lanes] are the run's count table
    ({!Simt.Interp.result}): per pc of [compiled.decoded], the warp
    instructions issued there and the active lanes summed over them. *)
type outcome = {
  compiled : Compile.compiled;
  metrics : Simt.Metrics.t;
  pc_issues : int array;
  pc_lanes : int array;
  memory : Simt.Memsys.t;
  check : (unit, string) result; (* the workload's output sanity check *)
}

(** SIMT efficiency of the run, in [0, 1]. *)
val efficiency : outcome -> float

(** Simulated cycles of the run. *)
val cycles : outcome -> int

(** [profile o] — the run's block profile, built from the count table:
    each basic block is credited the lanes issued at its first pc, the
    lane executions the §4.5 profile-guided detector reads. *)
val profile : outcome -> Analysis.Profile.t

(** [launch ?config ?init ?faults ?entry compiled ~args] executes a
    compiled program: [init] fills global memory before the launch
    (default: leave it zeroed), [entry] selects the kernel, [faults]
    injects chaos, [race] attaches the shadow-memory race logger
    (srrun [--race-check], the fuzz race oracles). [check] in the
    outcome is [Ok ()] — output checks belong to workload specs, not
    the run stage. *)
val launch :
  ?config:Simt.Config.t ->
  ?init:(Ir.Types.program -> Simt.Memsys.t -> unit) ->
  ?faults:Simt.Faults.t ->
  ?race:Simt.Race_log.t ->
  ?entry:string ->
  Compile.compiled ->
  args:Ir.Types.value list ->
  outcome

(** [run_spec ?config options spec] compiles [spec.source] under
    [options], with [spec.coarsen] applied unless [options] already
    requests coarsening, launches it under [config] adjusted by
    [spec.tweak_config] with [spec.init] and [spec.args], and checks the
    output with [spec.check]. *)
val run_spec : ?config:Simt.Config.t -> Compile.options -> Workloads.Spec.t -> outcome

(** [run_source ?config ?init options ~source ~args] for ad-hoc programs
    (no output check). [init] fills global memory before launch; by
    default memory is zero-initialised with integer zeros. *)
val run_source :
  ?config:Simt.Config.t ->
  ?init:(Ir.Types.program -> Simt.Memsys.t -> unit) ->
  Compile.options ->
  source:string ->
  args:Ir.Types.value list ->
  outcome

(** [speedup ~baseline ~optimized] — baseline cycles / optimized cycles. *)
val speedup : baseline:outcome -> optimized:outcome -> float
