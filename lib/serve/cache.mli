(** Content-addressed compile cache with LRU eviction.

    Keys are full request-relevant strings (source text plus the
    compile-affecting options); entries are addressed by the FNV-1a
    digest of the key but verified against the stored key on every hit,
    so a digest collision degrades to a miss instead of serving the
    wrong artifact.

    The cache is deliberately sequential: the server resolves each
    request's artifact through it in command order, on the one domain
    that answers, which is what makes the hit/miss/eviction counters —
    exposed in every response — a function of the command sequence. *)

type 'a t

(** [create ~capacity] — [capacity = 0] disables storage entirely (every
    lookup is a miss and nothing is retained): the cold-cache
    configuration, [srserved --cache-capacity 0]. *)
val create : capacity:int -> 'a t

(** 64-bit FNV-1a of a key string, as a non-negative OCaml int. *)
val digest : string -> int

(** [find_or_add t ~key build] returns the cached artifact for [key], or
    calls [build ()], stores the result (evicting the least recently
    used entry when full) and returns it. If [build] raises, nothing is
    stored and the miss still counts — failures are recomputed, never
    cached. *)
val find_or_add : 'a t -> key:string -> (unit -> 'a) -> Protocol.cache_status * 'a

(** [mem t ~key] — residency probe with no counter or recency effect;
    the server never calls it, tests use it to see what eviction left. *)
val mem : 'a t -> key:string -> bool

val hits : 'a t -> int

val misses : 'a t -> int

val evictions : 'a t -> int

(** Entries currently resident. *)
val length : 'a t -> int
