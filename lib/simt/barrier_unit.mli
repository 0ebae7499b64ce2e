(** Per-warp convergence-barrier state machine.

    Implements the semantics of the paper's synchronization primitives
    (Table 1) over Volta-style barrier registers:

    - a barrier [b] has a participation mask [P(b)] of lanes that executed
      [JoinBarrier]/[RejoinBarrier] since the last release;
    - a lane reaching [WaitBarrier b] while in [P(b)] blocks; lanes not in
      [P(b)] pass through;
    - the barrier {e fires} when every lane of [P(b)] is blocked on it,
      releasing all of them and clearing [P(b)];
    - a soft barrier ([WaitBarrier.th b k], §4.6) additionally fires when
      at least [k] participants are blocked, releasing exactly the blocked
      lanes and leaving the rest participating;
    - [CancelBarrier b] removes the executing lane from [P(b)], which can
      complete the fire condition for the remaining lanes;
    - a lane that exits the kernel is withdrawn from every barrier. *)

type t

(** [create ~n_barriers ~warp_size]. *)
val create : n_barriers:int -> warp_size:int -> t

(** [join t b lane] — add to the participation mask (idempotent). *)
val join : t -> int -> int -> unit

(** [cancel t b lane] — withdraw a lane (no-op if absent). Check
    {!fired} afterwards. *)
val cancel : t -> int -> int -> unit

(** [block t b lane ~now ~threshold] — record the lane blocked at a wait
    on [b], stamping its arrival cycle [now] (for the oldest-arrival
    yield-victim policy). [threshold] is the soft barrier's [k], or [-1]
    for a hard wait (the unit's own encoding, so a blocking lane boxes
    nothing). Callers must only block participant lanes. Check {!fired}
    afterwards. *)
val block : t -> int -> int -> now:int -> threshold:int -> unit

(** [withdraw_lane t lane] — remove a lane from every barrier (kernel
    exit); returns the barriers it participated in. Check {!fired}. *)
val withdraw_lane : t -> int -> int list

(** [is_participant t b lane]. *)
val is_participant : t -> int -> int -> bool

val participants : t -> int -> Support.Mask.t
val waiting : t -> int -> Support.Mask.t

(** [fired t b] — if the fire condition holds, release and return the
    blocked lanes (updating all state); [None] otherwise. *)
val fired : t -> int -> Support.Mask.t option

(** [force_release t b] — release the blocked lanes of [b] regardless of
    the fire condition (yield recovery and spurious-release fault
    injection), with the same state updates as a threshold fire: the
    released lanes leave the participation mask, the rest stay. [None]
    when nothing is waiting. *)
val force_release : t -> int -> Support.Mask.t option

(** [oldest_arrival t b] — the earliest arrival stamp among the lanes
    currently blocked on [b] ([None] when nothing is waiting). *)
val oldest_arrival : t -> int -> int option

(** [blocked_anywhere t lane] — the barrier this lane is blocked on, if
    any. *)
val blocked_anywhere : t -> int -> int option

val pp : Format.formatter -> t -> unit
