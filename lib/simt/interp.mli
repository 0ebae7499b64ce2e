(** The SIMT execution engine.

    Executes a pre-decoded program ({!Ir.Decoded}) over [n_warps] warps of [warp_size]
    threads with Volta-style independent thread scheduling: every thread
    has its own program counter, register frames and call stack; a
    per-warp scheduler issues one same-PC group per cycle through a single
    shared issue port; convergence barriers ({!Barrier_unit}) block and
    release groups of threads.

    Timing model: issuing costs one cycle on the shared port; an issued
    instruction makes its lanes unavailable for its latency (memory
    latency depends on coalescing, see {!Memsys}). Latency is hidden
    naturally by other PC-groups of the same warp — Volta's independent
    thread scheduling — and by other warps.

    Determinism: per-thread PRNG streams are seeded from
    [(config.seed, warp, lane)], so kernel results are identical across
    scheduler policies and compilation modes — the key property the
    correctness tests check.

    Forward progress: barrier state is warp-local, so a warp whose every
    live group is blocked on convergence barriers can never run again. A
    per-warp watchdog detects this at the blocking instruction; with
    [config.yield_on_stall] it releases a victim barrier (chosen by
    [config.yield_policy]) and the run completes with correct memory but
    lost convergence, otherwise it raises {!Deadlock} with the dynamic
    waits-for cycle. *)

exception Deadlock of string
(** Raised (unless [yield_on_stall]) when every live group of some warp
    is blocked on convergence barriers that can never fire — the concrete
    failure mode of conflicting barriers that §4.3's deconfliction exists
    to prevent. The message includes the waits-for cycle among the warp's
    barriers, each barrier's blocked lanes with their func/block sites,
    and the lanes it still expects. *)

exception Runtime_error of string
(** Type errors, out-of-bounds accesses, division by zero — annotated
    with warp, lane and pc. *)

(** Which issue budget ran out: [Issue_cap] is [config.max_issues], the
    safety net against runaway programs; [Fuel] is [config.fuel], a
    request deadline. *)
type budget = Issue_cap | Fuel

exception Out_of_budget of budget * string
(** The binding issue budget was exhausted: [config.fuel] when it is
    set and below [config.max_issues], else [config.max_issues] (the cap
    wins a tie). One check per issue. Deterministic — the loop counts
    issues, not wall clock — so the same run exhausts its budget at the
    same instruction on every replay. *)

(** One yield-recovery release, for determinism tests and lost-convergence
    attribution: [released] lanes were forced past the wait at [slot];
    [abandoned] lanes remain participants whose reconvergence with the
    released group is forfeited. *)
type yield_event = {
  at_cycle : int;
  warp : int;
  slot : int;
  released : int list;
  abandoned : int list;
}

(** A finished run. [pc_issues] and [pc_lanes] are its count table: per
    pc, the warp instructions issued there and the active lanes summed
    over them. Each issue is counted there once; [metrics]' [active_sum],
    [mem_accesses], [barrier_joins], [barrier_waits] and [barrier_cancels]
    are folded out of it by opcode after the loop. *)
type result = {
  metrics : Metrics.t;
  memory : Memsys.t;
  pc_issues : int array;
  pc_lanes : int array;
  yield_log : yield_event list; (* chronological; [] unless yields fired *)
}

(** One issued warp instruction, as seen by a tracer: which warp issued,
    at which cycle, which lanes were active, and where the instruction
    came from. The stream of these events is the raw material of the
    paper's Figure 1/3 execution diagrams. *)
type issue_event = {
  at_cycle : int;
  warp : int;
  pc : int;
  active : int list; (* lanes, ascending *)
  where : Ir.Linear.location;
}

(** [run config dprog ~args ~init_memory] launches
    [config.n_warps * config.warp_size] threads of the kernel. The issue
    loop dispatches over the decoded opcode column through a flat jump
    table — decode once with {!Ir.Decoded.decode}, run many times.

    [args] are the kernel parameters (uniform across threads);
    [init_memory] fills global tables before the launch;
    [tracer], when given, observes every issued warp instruction, for
    exhibits and tests that need the schedule itself (the count table
    already holds every per-pc total);
    [faults], when given, injects scheduler, memory-latency and barrier
    faults at the injector's decision points ({!Faults});
    [race], when given, records every load/store into the shadow-memory
    race logger ({!Race_log}) and advances its per-warp barrier-interval
    id on every organic barrier fire — the dynamic side of
    [srrun --race-check]; when absent it costs one test per lane of a
    load or store;
    [entry] launches the named function instead of the program's default
    kernel (multi-kernel programs; the function must be launchable).

    @raise Invalid_argument if [args] does not match the entry arity or
    [entry] names no function.
    @raise Deadlock / Runtime_error / Out_of_budget as documented above. *)
val run :
  ?tracer:(issue_event -> unit) ->
  ?faults:Faults.t ->
  ?race:Race_log.t ->
  ?entry:string ->
  Config.t ->
  Ir.Decoded.t ->
  args:Ir.Types.value list ->
  init_memory:(Memsys.t -> unit) ->
  result
