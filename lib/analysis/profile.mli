(** Dynamic block-frequency profiles.

    The simulator can export how many times each basic block issued, keyed
    by (function, block). The automatic detector (§4.5) optionally
    consumes a profile to replace its static trip-count guesses — the
    paper notes that "profile information may help improve the accuracy of
    our profitability tests". *)

type t

val empty : unit -> t

(** [record t ~func ~block ~count] adds [count] executions. *)
val record : t -> func:string -> block:int -> count:int -> unit

(** [count t ~func ~block] — recorded executions (0 if absent). *)
val count : t -> func:string -> block:int -> int

val pp : Format.formatter -> t -> unit
