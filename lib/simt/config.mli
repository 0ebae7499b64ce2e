(** Machine configuration for the SIMT simulator.

    Defaults model a Volta-class streaming multiprocessor at warp
    granularity: 32-lane warps with independent thread scheduling,
    convergence barriers, one shared issue port, and a latency-based
    memory model with 128-byte (16-word) coalescing. *)

(** How the per-warp scheduler picks among runnable same-PC groups. *)
type policy =
  | Most_threads  (** largest group first; ties to the lowest pc — models a
                      convergence-optimizer-style greedy scheduler *)
  | Lowest_pc  (** lowest pc first — lets lagging threads catch up *)
  | Round_robin  (** rotate over groups — fairness baseline *)

(** Every policy by the name srrun, the serve protocol and the fuzzer
    spell it, in the order the protocol's error text lists them:
    [most-threads|lowest-pc|round-robin]. *)
val policies : (string * policy) list

val policy_name : policy -> string

(** How yield recovery picks the victim barrier when every live group of
    a warp is blocked on convergence barriers (the forward-progress
    watchdog). All three are deterministic; ties break toward the lowest
    slot id. *)
type yield_policy =
  | Oldest_arrival  (** the barrier whose longest-blocked lane arrived
                        first — Volta-faithful: the wait that has starved
                        longest is released first *)
  | Most_waiters  (** the barrier releasing the most blocked lanes *)
  | Lowest_slot  (** the lowest slot id with blocked lanes *)

(** Every yield policy by the name srrun's [--yield-policy] spells it. *)
val yield_policies : (string * yield_policy) list

type latencies = {
  alu : int;
  float_op : int;
  special : int; (* sqrt/exp/log/sin/cos *)
  branch : int;
  barrier : int;
  call : int;
  rand : int;
}

type cache = {
  sets : int;
  ways : int;
  hit_latency : int;
}

type memory = {
  line_words : int; (* words per coalescing segment / cache line *)
  base_latency : int; (* first transaction *)
  per_transaction : int; (* each extra non-coalesced transaction *)
  cache : cache option;
}

type t = {
  warp_size : int;
  n_warps : int;
  policy : policy;
  latencies : latencies;
  memory : memory;
  yield_on_stall : bool;
      (** Volta-style forward progress: when a warp's every live group is
          blocked on convergence barriers, forcibly release a victim
          barrier (chosen by [yield_policy]) instead of reporting
          deadlock. The run completes with correct memory but degraded
          SIMT efficiency; {!Metrics.t} attributes the loss. Off by
          default so that missing deconfliction is a detectable compiler
          bug. *)
  yield_policy : yield_policy;
  seed : int;
  max_issues : int; (** safety net against runaway programs *)
  fuel : int;
      (** request deadline: the run stops deterministically with
          {!Interp.Out_of_budget} [Fuel] once this many instructions have
          issued ([0] = unlimited). Unlike [max_issues] — a tool-bug
          safety net mapped to the runtime failure code — fuel
          exhaustion is an expected, budgeted outcome with its own exit
          code, so a service can bound a hostile request without
          conflating it with a broken simulator. *)
}

val default : t

(** [validate t] raises [Invalid_argument] on nonsensical parameters
    (warp size out of range, non-positive counts/latencies). *)
val validate : t -> unit
