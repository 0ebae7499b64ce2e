(** Thread masks for a single warp.

    A mask is an immutable set of lane indices in [0, width). The
    representation is a native [int] bitset, which restricts warp widths to
    at most {!max_width} lanes — ample for the 32-lane warps the paper (and
    every shipping GPU) uses. Lane 0 is the least significant bit. *)

type t

(** Maximum supported warp width (number of representable lanes). *)
val max_width : int

(** The empty mask. *)
val empty : t

(** [full n] is the mask containing lanes [0 .. n-1].
    @raise Invalid_argument if [n < 0] or [n > max_width]. *)
val full : int -> t

(** [singleton lane] is the mask containing exactly [lane].
    @raise Invalid_argument if [lane] is outside [0, max_width). *)
val singleton : int -> t

(** [mem lane m] tests lane membership. Lanes outside the representable
    range are never members. *)
val mem : int -> t -> bool

(** [add lane m] adds a lane.
    @raise Invalid_argument if [lane] is outside [0, max_width). *)
val add : int -> t -> t

(** [remove lane m] removes a lane (no-op if absent). *)
val remove : int -> t -> t

val union : t -> t -> t
val inter : t -> t -> t

(** [diff a b] is the set of lanes in [a] but not in [b]. *)
val diff : t -> t -> t

(** Number of lanes in the mask (population count). *)
val count : t -> int

val is_empty : t -> bool
val equal : t -> t -> bool

(** [subset a b] is true when every lane of [a] is also in [b]. *)
val subset : t -> t -> bool

(** [disjoint a b] is true when [a] and [b] share no lane. *)
val disjoint : t -> t -> bool

(** [iter f m] applies [f] to each member lane in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f m acc] folds over member lanes in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Member lanes in increasing order. *)
val to_list : t -> int list

(** [of_list lanes] builds a mask from a lane list.
    @raise Invalid_argument on out-of-range lanes. *)
val of_list : int list -> t

(** Lowest member lane. @raise Not_found on the empty mask. *)
val lowest : t -> int

(** [compare_lex a b] orders masks as their ascending lane lists compare
    lexicographically: [compare_lex a b] has the sign of
    [compare (to_list a) (to_list b)]. The interpreter's scheduler uses
    this to break ties between runnable groups at the same pc without
    materialising the lists. *)
val compare_lex : t -> t -> int

(** Formats as a binary lane string, lane [width-1] first, e.g. [0b0101]
    for lanes {0, 2} at width 4. *)
val pp : width:int -> Format.formatter -> t -> unit

(** Hex rendering of the underlying bits, e.g. ["0x5"]. *)
val to_hex : t -> string
