(** Global-memory model: backing store, coalescing, optional cache.

    A warp memory access touching [n] distinct lines costs
    [base_latency + (n - 1) * per_transaction] cycles (fully coalesced
    accesses pay the base only). With a cache configured, lines that hit
    pay [hit_latency] instead and the cost is
    [max(hit part, miss part)] approximated additively per line class. *)

type t

type stats = {
  reads : int;
  writes : int;
  transactions : int;
  hits : int;
  misses : int;
}

(** [create config ~size] allocates [size] words initialised to [I 0]. *)
val create : Config.memory -> size:int -> t

(** [read t addr]. @raise Invalid_argument out of bounds. *)
val read : t -> int -> Ir.Types.value

(** [write t addr v]. @raise Invalid_argument out of bounds. *)
val write : t -> int -> Ir.Types.value -> unit

val size : t -> int

(** [access_costn t ~addrs ~n] — latency in cycles of one warp-level
    access touching the per-lane addresses [addrs.(0 .. n-1)]
    (duplicates allowed), updating cache state and statistics. The
    interpreter reuses one scratch array across issues, so no
    per-access list is built. *)
val access_costn : t -> addrs:int array -> n:int -> int

val stats : t -> stats

(** [dump t ~base ~len] — snapshot of a memory region. *)
val dump : t -> base:int -> len:int -> Ir.Types.value array

(** [digest t] — a non-negative FNV-style hash of the entire store over
    type-tagged bit patterns: equal iff the memories are value-for-value
    identical (int/float tags and exact float bits included). Used by the
    baseline-equivalence oracle and [srrun --digest]. *)
val digest : t -> int
