(** Crash-safe persistent artifact store ([srserved --persist DIR]).

    A write-through, content-addressed side store for compile artifacts:
    one file per entry named by the FNV-1a digest of the key, written
    via temp-file-plus-atomic-rename so a crash mid-store can never
    leave a torn entry under the live name. Every load re-verifies the
    envelope — magic, build fingerprint, stored key, payload digest —
    before unmarshalling, so corruption (truncation, bit flips, a foreign
    file dropped in the directory) and an entry written by another build
    of the server silently degrade to a cache miss rather than poisoning
    a response. The build fingerprint is the digest of the running
    executable, computed once per process by the first {!create}; if the
    executable cannot be read, the store degrades like an unusable
    directory. [hits]/[corrupt] counters surface in [stats] replies
    only, never in [ok] run responses: a restarted server replaying the
    same trace must stay byte-identical on the run stream, warm or cold.

    Values must be marshal-safe (plain data, no closures) —
    {!Core.Compile.compiled} qualifies. *)

type t

(** [create ~dir] — makes [dir] if missing; an unusable directory
    degrades every load to a miss and every store to a no-op. *)
val create : dir:string -> t

(** [load t ~key] — the stored artifact, or [None]. A missing entry is a
    plain miss; an existing-but-invalid entry, or one another build
    wrote, additionally bumps {!corrupt}. *)
val load : t -> key:string -> 'a option

(** [store t ~key value] — atomically persist [value] under [key]
    (last write wins). Storage failures are swallowed. *)
val store : t -> key:string -> 'a -> unit

(** Loads satisfied from disk. *)
val hits : t -> int

(** Existing entries rejected by verification (each degraded to a
    miss). *)
val corrupt : t -> int

val dir : t -> string
