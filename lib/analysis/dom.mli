(** Dominator trees, post-dominator trees, and dominance frontiers.

    Uses the Cooper–Harvey–Kennedy iterative algorithm over reverse post
    order, and the same paper's one-pass frontier computation.
    Post-dominance is dominance on {!Cfg.reverse}; the immediate
    post-dominator of a divergent branch block is where today's compilers
    reconverge (the paper's "original reconvergence point"). *)

type t

(** [compute g] builds the dominator tree of [g] rooted at its entry. *)
val compute : Cfg.t -> t

(** Immediate dominator; [None] for the root and for nodes unreachable
    from the root. *)
val idom : t -> int -> int option

(** [dominates t a b] — does [a] dominate [b]? Reflexive; O(1), from
    pre/post numbers on the tree. A node outside the tree (unreachable)
    is dominated only by itself. *)
val dominates : t -> int -> int -> bool

(** [strictly_dominates t a b] — [dominates] and [a <> b]. *)
val strictly_dominates : t -> int -> int -> bool

(** [frontiers t g] computes the dominance frontier of every node of [g]
    (must be the same graph [t] was computed from) in one pass, linear in
    the graph plus the frontiers' total size, and returns the lookup:
    [frontiers t g id] is [id]'s frontier, sorted; [[]] for a node
    outside the tree. Apply it to [t] and [g] once and reuse the lookup. *)
val frontiers : t -> Cfg.t -> int -> int list

(** [common_ancestor t a b] is the nearest common ancestor of [a] and [b]
    in the dominator tree, e.g. the nearest common dominator.
    @raise Invalid_argument if either node is unreachable. *)
val common_ancestor : t -> int -> int -> int

(** Convenience: post-dominator tree of a function.
    [ipdom] of a block is its immediate post-dominator ({!Cfg.synthetic_exit}
    if the block's only "post-dominator" is program exit; [None] if the
    block cannot reach exit). *)
module Post : sig
  type pt

  val compute : Cfg.t -> pt
  val ipdom : pt -> int -> int option
  val postdominates : pt -> int -> int -> bool

  (** Post-dominance frontiers, {!frontiers} on the reversed graph: [x]
      is control dependent on branch block [b] iff [b] is in
      [frontiers pt x]. Apply it to [pt] once and reuse the lookup. *)
  val frontiers : pt -> int -> int list

  (** Tree access, e.g. for nearest common post-dominators. *)
  val tree : pt -> t

  (** The reversed graph the tree was computed on. *)
  val graph : pt -> Cfg.t
end
