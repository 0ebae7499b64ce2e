(** Per-region SIMT-efficiency breakdown.

    The paper argues Speculative Reconvergence trades convergence in the
    prolog/epilog for convergence in the expensive common code ("we
    improve overall SIMT efficiency, especially in the compute-intensive
    portions of code", §5.2). This module makes that trade measurable: it
    splits a finished run's count table by whether each pc lies inside
    or outside the predicted regions and reports the efficiency of each
    side separately. It compiles and launches nothing. *)

type t = {
  region_issues : int;
  region_active : int;
  other_issues : int;
  other_active : int;
  warp_size : int;
}

(** Efficiency inside the predicted regions (0 when nothing issued). *)
val region_efficiency : t -> float

(** Efficiency outside them. *)
val other_efficiency : t -> float

(** [in_region compiled ~func ~block] — whether [block] of [func] lies
    in one of [compiled]'s hint regions: the blocks dominated by a
    predicted label, or a predicted callee's body. Apply it to
    [compiled] once; the regions are computed then. *)
val in_region : Compile.compiled -> func:string -> block:int -> bool

(** [of_outcome o] — split the issues and active lanes of [o]'s count
    table by whether the issuing block is {!in_region}. When the
    compilation has no hints, every issue counts as "other". *)
val of_outcome : Runner.outcome -> t

val pp : Format.formatter -> t -> unit
