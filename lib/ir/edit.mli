(** Block-editing helpers shared by the synchronization passes, the
    barrier repair search ([Analysis.Barrier_repair]) and the fuzzer's
    misplacement mutator. *)

(** [insert_at f bid idx inst] inserts [inst] before position [idx] of
    the block's instruction list ([idx] may equal the length, appending).
    @raise Invalid_argument when [idx] is out of range. *)
val insert_at : Types.func -> int -> int -> Types.inst -> unit

(** [insert_after_leading f bid ~skip inst] inserts [inst] after the
    longest prefix of instructions satisfying [skip]. *)
val insert_after_leading :
  Types.func -> int -> skip:(Types.inst -> bool) -> Types.inst -> unit

(** [remove_barrier_ops f barrier] deletes every instruction referencing
    [barrier]; returns how many were removed. *)
val remove_barrier_ops : Types.func -> Types.barrier -> int

(** [remove_at f bid idx] deletes and returns the instruction at [idx].
    @raise Invalid_argument when [idx] is out of range. *)
val remove_at : Types.func -> int -> int -> Types.inst

(** [rewrite_slot_at f bid idx slot] retargets the barrier primitive at
    [idx] to [slot], keeping its opcode (and threshold).
    @raise Invalid_argument if [idx] is out of range or the instruction
    is not a barrier primitive. *)
val rewrite_slot_at : Types.func -> int -> int -> Types.barrier -> unit

(** [move_inst f ~from_block ~from_index ~to_block] removes the source
    instruction and re-inserts it at the top of [to_block], after any
    leading [Join]/[Rejoin] prefix. *)
val move_inst : Types.func -> from_block:int -> from_index:int -> to_block:int -> unit
