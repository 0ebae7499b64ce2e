(** Pre-decoded threaded code: the interpreter's execution unit.

    {!Linear.t} is a tree of boxed ADTs. [decode] lowers it {e once},
    at compile time, into a flat struct-of-arrays form, so the issue
    loop matches no [Linear.linst], [Types.inst] or [Types.operand]:

    - one {e opcode} per slot, a constant constructor of {!opcode}, so
      the issue loop dispatches through a single dense jump table;
    - up to three {e integer fields} per slot ([a]/[b]/[c]): destination
      registers, encoded operands, barrier slots, thresholds and branch
      targets — all resolved to absolute indices at decode time;
    - a {e latency class} per slot, so static issue latencies become one
      table lookup instead of an [is_float_op]/[is_special_unop] walk;
    - side tables for the rare big payloads: the immediate-value pool
      [vals], the per-slot binop/unop sub-opcodes, and the call
      descriptors (callee entry pc, frame size, flattened argument
      operands, return register).

    The result is immutable after [decode] and references its source
    {!Linear.t} only for metadata (locations, function table, memory
    layout) — never on the per-issue path. It is the artifact srserved's
    content-addressed compile cache hands to every launch of a kernel.

    {2 Operand encoding}

    An encoded operand is a non-negative int: bit 0 tags the kind, the
    remaining bits are an index. [(r lsl 1)] reads virtual register [r]
    of the current frame; [((i lsl 1) lor 1)] reads slot [i] of the
    [vals] immediate pool. Fields that hold an {e optional} operand
    (a [ret] value) use [-1] for "none". *)

(** {2 Opcodes}

    Constant constructors, so the interpreter's [match] on them compiles
    to a flat jump table. The comment on each gives its fields. [Join]
    and [Rejoin] keep distinct opcodes (their provenance matters to
    dumps and tests) but share semantics. *)
type opcode =
  | Bin  (** a=dst  b=src1  c=src2  (+ bop table) *)
  | Un  (** a=dst  b=src  (+ uop table) *)
  | Mov  (** a=dst  b=src *)
  | Load  (** a=dst  b=addr *)
  | Store  (** a=addr  b=value *)
  | Tid  (** a=dst *)
  | Lane  (** a=dst *)
  | Nthreads  (** a=dst *)
  | Rand  (** a=dst *)
  | Randint  (** a=dst  b=bound *)
  | Join  (** a=slot *)
  | Rejoin  (** a=slot *)
  | Wait  (** a=slot *)
  | Wait_threshold  (** a=slot  b=threshold *)
  | Cancel  (** a=slot *)
  | Call  (** a=index into [calls] *)
  | Ret  (** a=encoded operand or -1 *)
  | Br  (** a=cond  b=absolute target pc *)
  | Jump  (** a=absolute target pc *)
  | Exit

val opcode_name : opcode -> string

(** {2 Latency classes}

    Which {!Simt.Config.latencies} field a slot's static issue latency
    comes from. Memory ops carry [Lc_mem]: their cost is dynamic
    (coalescing), the class is informational. *)
type lclass =
  | Lc_alu
  | Lc_float
  | Lc_special
  | Lc_branch
  | Lc_barrier
  | Lc_call
  | Lc_rand
  | Lc_mem

val lclass_name : lclass -> string

(** One [Lcall] site, fully resolved: [centry] is the callee's absolute
    entry pc, [cn_regs] the callee frame size (already [max 1]),
    [cargs] the encoded argument operands in order, [cret] the caller
    register receiving the return value ([-1] for none). [ccallee] is
    kept for dumps only. *)
type call = {
  centry : int;
  cn_regs : int;
  cargs : int array;
  cret : int;
  ccallee : string;
}

type t = {
  linear : Linear.t;  (** provenance: locations, functions, memory layout *)
  op : opcode array;  (** opcode per slot *)
  a : int array;  (** field 1 (see opcode table) *)
  b : int array;  (** field 2 *)
  c : int array;  (** field 3 *)
  lclass : lclass array;  (** latency class per slot *)
  bop : Types.binop array;  (** sub-opcode for [Bin] slots *)
  uop : Types.unop array;  (** sub-opcode for [Un] slots *)
  vals : Types.value array;  (** immediate pool *)
  calls : call array;  (** call descriptors, indexed by field [a] *)
}

(** Encoded-operand accessors (tests, dumps). *)

val enc_is_imm : int -> bool

val enc_index : int -> int

(** [decode linear] lowers a linearized program. Total for every program
    {!Linear.linearize} can produce.
    @raise Invalid_argument on a raw [Call] instruction (the linearizer
    never emits one). *)
val decode : Linear.t -> t

(** Human-readable listing of the descriptor array — opcode, decoded
    fields, resolved targets, immediate-pool contents — so decode bugs
    are diagnosable without running the interpreter ([srcc
    --dump decoded]). *)
val pp : Format.formatter -> t -> unit
