(* Block-editing helpers shared by the synchronization passes, the
   barrier repair search and the fuzzer's misplacement mutator. *)

module T = Types

(* [insert_at f bid idx inst] inserts [inst] before position [idx] of the
   block's instruction list ([idx] may equal the length to append). *)
let insert_at (f : T.func) bid idx inst =
  let b = T.block f bid in
  let n = List.length b.insts in
  if idx < 0 || idx > n then
    invalid_arg (Printf.sprintf "Edit.insert_at: index %d out of [0, %d]" idx n);
  let before = List.filteri (fun i _ -> i < idx) b.insts in
  let after = List.filteri (fun i _ -> i >= idx) b.insts in
  b.insts <- before @ (inst :: after)

(* [insert_after_leading f bid ~skip inst] inserts [inst] after the longest
   prefix of instructions satisfying [skip]. *)
let insert_after_leading (f : T.func) bid ~skip inst =
  let b = T.block f bid in
  let rec prefix_len i = function
    | x :: rest when skip x -> prefix_len (i + 1) rest
    | _ -> i
  in
  insert_at f bid (prefix_len 0 b.insts) inst

(* [remove_barrier_ops f barrier] deletes every instruction referencing
   [barrier] in [f]; returns how many were removed. *)
let remove_barrier_ops (f : T.func) barrier =
  let removed = ref 0 in
  T.iter_blocks f (fun b ->
      let keep inst =
        match T.barrier_of inst with
        | Some x when x = barrier ->
          incr removed;
          false
        | Some _ | None -> true
      in
      b.insts <- List.filter keep b.insts);
  !removed

(* [remove_at f bid idx] deletes the instruction at position [idx] and
   returns it. *)
let remove_at (f : T.func) bid idx =
  let b = T.block f bid in
  let n = List.length b.insts in
  if idx < 0 || idx >= n then
    invalid_arg (Printf.sprintf "Edit.remove_at: index %d out of [0, %d)" idx n);
  let removed = List.nth b.insts idx in
  b.insts <- List.filteri (fun i _ -> i <> idx) b.insts;
  removed

(* [rewrite_slot_at f bid idx slot] retargets the barrier primitive at
   [idx] to [slot], keeping its opcode (and threshold). *)
let rewrite_slot_at (f : T.func) bid idx slot =
  let b = T.block f bid in
  let n = List.length b.insts in
  if idx < 0 || idx >= n then
    invalid_arg (Printf.sprintf "Edit.rewrite_slot_at: index %d out of [0, %d)" idx n);
  b.insts <-
    List.mapi
      (fun i inst ->
        if i <> idx then inst
        else
          match inst with
          | T.Join _ -> T.Join slot
          | T.Rejoin _ -> T.Rejoin slot
          | T.Wait _ -> T.Wait slot
          | T.Wait_threshold (_, k) -> T.Wait_threshold (slot, k)
          | T.Cancel _ -> T.Cancel slot
          | other ->
            invalid_arg
              (Format.asprintf "Edit.rewrite_slot_at: %a is not a barrier primitive"
                 Printer.pp_inst other))
      b.insts

(* [move_inst f ~from_block ~from_index ~to_block] removes the
   instruction at the source position and inserts it at the top of
   [to_block], after any leading arrive primitives (so a moved wait
   stays after the joins of its landing block). *)
let move_inst (f : T.func) ~from_block ~from_index ~to_block =
  let inst = remove_at f from_block from_index in
  insert_after_leading f to_block
    ~skip:(fun i -> match i with T.Join _ | T.Rejoin _ -> true | _ -> false)
    inst
