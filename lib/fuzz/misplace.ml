(* Barrier-misplacement mutator: perturb a compiled program's barrier
   placement to manufacture exactly the shapes srlint checks for —
   reordered waits (cycles), duplicated joins (double arrive), deleted
   cancels (bypass/overlap), stray slot ids (unallocated), relocated
   waits (undominated). The repair oracles feed the mutants to
   Analysis.Barrier_repair: every finding must either repair to a
   checker-clean program with the PDOM memory digest, or be reported
   unrepairable with the blocking finding named.

   Mutations act on a Builder.copy_program copy; the input is never
   touched. A mutant that fails the structural verifier is discarded
   (the mutator must only manufacture *placement* bugs, not broken IR). *)

module T = Ir.Types
module Sm = Support.Splitmix

type mutation = Swap_waits | Dup_join | Drop_cancel | Stray_slot | Relocate_wait

let mutation_name = function
  | Swap_waits -> "swap-waits"
  | Dup_join -> "dup-join"
  | Drop_cancel -> "drop-cancel"
  | Stray_slot -> "stray-slot"
  | Relocate_wait -> "relocate-wait"

let all = [ Swap_waits; Dup_join; Drop_cancel; Stray_slot; Relocate_wait ]

(* All (func, block, index, inst) sites matching [keep], in deterministic
   (func, block, index) order. *)
let sites (p : T.program) keep =
  List.concat_map
    (fun n ->
      let f = Hashtbl.find p.T.funcs n in
      List.concat_map
        (fun bid ->
          (T.block f bid).T.insts
          |> List.mapi (fun i inst -> (n, bid, i, inst))
          |> List.filter (fun (_, _, _, inst) -> keep inst))
        (T.block_ids f))
    (T.func_names p)

let pick rng xs =
  match xs with [] -> None | _ -> Some (List.nth xs (Sm.int rng (List.length xs)))

let is_wait = function T.Wait _ | T.Wait_threshold _ -> true | _ -> false
let is_join = function T.Join _ | T.Rejoin _ -> true | _ -> false
let is_cancel = function T.Cancel _ -> true | _ -> false

let func (p : T.program) n = Hashtbl.find p.T.funcs n

(* Apply one mutation kind; None when the program has no applicable
   site (e.g. no cancel to drop). *)
let try_mutation rng (p : T.program) = function
  | Swap_waits -> (
    let waits = sites p is_wait in
    match pick rng waits with
    | None -> None
    | Some (fn, b1, i1, w1) -> (
      let others =
        List.filter
          (fun (fn', _, _, w') -> fn' = fn && T.barrier_of w' <> T.barrier_of w1)
          waits
      in
      match pick rng others with
      | None -> None
      | Some (_, b2, i2, w2) ->
        let f = func p fn in
        let s1 = Option.get (T.barrier_of w1) and s2 = Option.get (T.barrier_of w2) in
        Ir.Edit.rewrite_slot_at f b1 i1 s2;
        Ir.Edit.rewrite_slot_at f b2 i2 s1;
        Some ()))
  | Dup_join -> (
    match pick rng (sites p is_join) with
    | None -> None
    | Some (fn, b, i, j) ->
      Ir.Edit.insert_at (func p fn) b (i + 1) j;
      Some ())
  | Drop_cancel -> (
    match pick rng (sites p is_cancel) with
    | None -> None
    | Some (fn, b, i, _) ->
      ignore (Ir.Edit.remove_at (func p fn) b i);
      Some ())
  | Stray_slot -> (
    match pick rng (sites p (fun i -> T.barrier_of i <> None)) with
    | None -> None
    | Some (fn, b, i, _) ->
      Ir.Edit.rewrite_slot_at (func p fn) b i (p.T.next_barrier + 3);
      Some ())
  | Relocate_wait -> (
    match pick rng (sites p is_wait) with
    | None -> None
    | Some (fn, b, i, _) -> (
      let f = func p fn in
      match pick rng (List.filter (fun b' -> b' <> b) (T.block_ids f)) with
      | None -> None
      | Some b' ->
        Ir.Edit.move_inst f ~from_block:b ~from_index:i ~to_block:b';
        Some ()))

(* [mutate rng p] returns a structurally-valid mutant and the mutation
   that produced it, or None when no mutation applies. Tries a few
   random (mutation, site) draws before giving up. *)
let mutate rng (p : T.program) =
  let rec go attempts =
    if attempts = 0 then None
    else
      let m = List.nth all (Sm.int rng (List.length all)) in
      let q = Ir.Builder.copy_program p in
      match try_mutation rng q m with
      | None -> go (attempts - 1)
      | Some () ->
        if Ir.Verifier.check_program q = [] then Some (mutation_name m, q)
        else go (attempts - 1)
  in
  go 8
