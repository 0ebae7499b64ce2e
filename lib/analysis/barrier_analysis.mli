(** The paper's two barrier dataflow analyses (§4.2.1) and the conflict
    detection that drives deconfliction (§4.3).

    Both analyses run at instruction granularity: block-level fixpoints via
    {!Dataflow}, then an in-block replay exposes the state before and after
    every instruction, which is where [CancelBarrier]/[RejoinBarrier]
    placement decisions are made.

    Effects of the primitives (Table 1):
    - [Join]/[Rejoin] — gen for the joined analysis, kill for liveness;
    - [Wait]/[Wait_threshold] — kill for the joined analysis, gen for
      liveness;
    - [Cancel] — kill for the joined analysis only. The paper's equations
      ignore [Cancel]/[Rejoin] because they are not yet inserted when the
      analyses first run; when the analyses are re-run for conflict
      detection the inserted primitives participate with these effects. *)

open Sets

type point = { block : int; index : int }
(** A program point: before instruction [index] of [block]; [index] equal
    to the instruction count denotes the point before the terminator. *)

type t

(** [entry_waits p callee] — the barriers waited in [callee]'s entry
    block (empty for an unknown [callee]): the waits {!Interproc}
    propagates to predicted callees (§4.4), so in every caller a call to
    [callee] is the wait event for them. [entry_waits p] reads [p] once,
    when applied: later edits to [p] do not show in what it returns. *)
val entry_waits : Ir.Types.program -> string -> Int_set.t

(** [run func] computes both analyses for every barrier mentioned in
    [func].

    [call_waits callee] names the barriers whose wait was propagated to
    [callee]'s entry (§4.4): in the caller, a call to [callee] then acts
    as the wait event — clearing membership for the joined analysis and
    generating liveness for the backward analysis — mirroring the
    caller-side model {!Interproc} itself uses. Defaults to the empty
    mapping, i.e. purely intraprocedural analysis. *)
val run : ?call_waits:(string -> Int_set.t) -> Ir.Types.func -> t

(** Set of barriers joined (member of an uncleared barrier) at block
    entry/exit — Equation 1. *)
val joined_in : t -> int -> Int_set.t

val joined_out : t -> int -> Int_set.t

(** Set of live barriers (a [Wait] lies on some path ahead) at block
    entry/exit — Equation 2. *)
val live_in : t -> int -> Int_set.t

val live_out : t -> int -> Int_set.t

(** [joined_at t point] / [live_at t point] — instruction-granular states
    (state holding just before the instruction at [point]). *)
val joined_at : t -> point -> Int_set.t

val live_at : t -> point -> Int_set.t

(** [conflicts t] — pairs of barriers whose joined ranges overlap
    non-inclusively (neither contains the other), i.e. the §4.3
    conflicts. A barrier's joined range is every program point where a
    thread may be an uncleared member of it ({!joined_at}): the §4.3
    "live range ... from the moment threads join the barrier until the
    barrier is cleared", which Figure 5's interval arrows depict. Each
    unordered pair is reported once, smaller id first, in sorted order.
    Linear in the function's size: one replay of each block counts every
    range's points and every pair's shared points. *)
val conflicts : t -> (int * int) list

val pp : Format.formatter -> t -> unit
