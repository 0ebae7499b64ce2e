(** Shadow-memory data-race logger — the dynamic ground truth behind
    [Analysis.Race_safety] (surfaced as [srrun --race-check] and the
    fuzz pipeline's race oracles).

    Detection model: each warp carries a {e barrier-interval id}, bumped
    every time one of its convergence barriers organically fires
    (yield-recovery and fault-injected releases do {e not} advance it —
    a forced release is lost synchronization, so accesses on either side
    of it really are unordered). Every logged access is stamped with its
    warp's current interval. Two accesses to the same cell race when
    they come from {e different threads of the same warp in the same
    interval} and at least one is a write — exactly the phase model the
    static analysis proves over: a full barrier separates the intervals
    of every thread that crosses it.

    Cross-warp pairs are deliberately not compared: barrier state is
    warp-local, so interval ids of different warps advance independently
    and any cross-warp verdict would depend on the scheduler — the
    logger must be deterministic across all policies for the
    [race-spurious] oracle to be meaningful. A cross-warp collision on
    generated programs always has an intra-warp witness (whole warps
    execute each access), so no oracle teeth are lost.

    The shadow state is last-writer plus two distinct-thread reader
    slots per cell; two readers suffice because a read-write conflict
    only needs {e some} same-interval reader of another thread to pair
    with the writer. The interpreter pays O(1) per logged access, and
    one test per lane of a load or store when no log is attached
    ([?race] defaults to absent). *)

type kind = Write_write | Read_write

val kind_name : kind -> string

(** One detected race: the stored shadow access ([first_*]) against the
    access that collided with it ([second_*]). [epoch] is the warp's
    barrier-interval id at the collision. *)
type event = {
  addr : int;
  kind : kind;
  warp : int;
  epoch : int;
  first_tid : int;
  first_pc : int;
  second_tid : int;
  second_pc : int;
}

type t

(** [create ~size ~n_warps ()] — shadow state for a memory of [size]
    cells; at most [cap] (default 64) events are retained (the {!total}
    count keeps counting past the cap). *)
val create : ?cap:int -> size:int -> n_warps:int -> unit -> t

(** Advance a warp's barrier-interval id (called by the interpreter on
    every organic barrier fire of that warp). *)
val bump : t -> warp:int -> unit

(** The warp's current barrier-interval id. *)
val epoch : t -> warp:int -> int

val on_write : t -> warp:int -> tid:int -> pc:int -> addr:int -> unit
val on_read : t -> warp:int -> tid:int -> pc:int -> addr:int -> unit

(** Total races detected (including any past the retention cap). *)
val total : t -> int

(** Retained events, in detection order. *)
val events : t -> event list

val pp_event : Format.formatter -> event -> unit
