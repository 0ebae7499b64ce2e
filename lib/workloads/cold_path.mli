(** A compile-heavy kernel shape: [n] guarded updates on a path no
    thread takes at run time.

    Each guard compares a tid-derived non-negative value against a
    distinct negative sentinel, so it is never taken: every statement
    costs compile time (and a PDOM barrier) but no simulated work, and a
    launch issues only the guards and the epilogue. The shape exposes
    how compile cost grows with source size, and it is what a service
    amortizing one kernel over many launches pays on a cache miss. *)

(** [source ~salt ~n] — the kernel with [n] guarded statements. Distinct
    [salt]s give distinct sources of the same shape. *)
val source : salt:int -> n:int -> string
