module T = Ir.Types
module ISet = Analysis.Sets.Int_set

type report = { dce_removed : int; dead_barrier_ops_removed : int }

(* Is the instruction removable when its results are unused? *)
let pure = function
  | T.Bin _ | T.Un _ | T.Mov _ | T.Tid _ | T.Lane _ | T.Nthreads _ | T.Load _ -> true
  (* Rand/Randint advance the per-thread PRNG stream: removing one would
     shift every subsequent draw. Calls, stores and barrier operations
     have observable effects. *)
  | T.Rand _ | T.Randint _ | T.Call _ | T.Store _ | T.Join _ | T.Rejoin _ | T.Wait _
  | T.Wait_threshold _ | T.Cancel _ -> false

let dce_pass (f : T.func) =
  let removed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let liveness = Analysis.Reg_liveness.run f in
    let removed_this_round = ref 0 in
    T.iter_blocks f (fun b ->
        (* One backward sweep per block with an incrementally maintained
           live set (the per-index [live_after] query refolds the whole
           block suffix, which is quadratic). A removed instruction
           contributes neither uses nor kills, so an intra-block dead
           chain dies in a single round; cross-block chains still drive
           the outer fixpoint. The fixpoint is the same either way:
           removing a dead instruction never revives another. *)
        let live =
          ref
            (List.fold_left
               (fun s r -> ISet.add r s)
               (Analysis.Reg_liveness.live_out liveness b.id)
               (T.term_uses b.term))
        in
        b.insts <-
          List.fold_left
            (fun acc inst ->
              let defs = T.defs inst in
              let dead =
                pure inst && defs <> []
                && List.for_all (fun r -> not (ISet.mem r !live)) defs
              in
              if dead then begin
                incr removed_this_round;
                acc
              end
              else begin
                live :=
                  List.fold_left
                    (fun s r -> ISet.add r s)
                    (List.fold_left (fun s r -> ISet.remove r s) !live defs)
                    (T.uses inst);
                inst :: acc
              end)
            [] (List.rev b.insts));
    removed := !removed + !removed_this_round;
    continue_ := !removed_this_round > 0
  done;
  !removed

(* Program-wide barrier uses: a barrier joined in a caller may be waited
   inside a callee (the interprocedural variant), so deadness is a
   whole-program property. *)
let barrier_uses (p : T.program) =
  let joined = ref ISet.empty and waited = ref ISet.empty in
  Hashtbl.iter
    (fun _ (f : T.func) ->
      T.iter_blocks f (fun b ->
          List.iter
            (fun i ->
              match i with
              | T.Join x | T.Rejoin x -> joined := ISet.add x !joined
              | T.Wait x | T.Wait_threshold (x, _) -> waited := ISet.add x !waited
              | T.Cancel _ | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _
              | T.Lane _ | T.Nthreads _ | T.Rand _ | T.Randint _ | T.Call _ -> ())
            b.insts))
    p.funcs;
  (!joined, !waited)

let dead_barrier_pass (p : T.program) =
  let joined, waited = barrier_uses p in
  let removed = ref 0 in
  Hashtbl.iter
    (fun _ (f : T.func) ->
      T.iter_blocks f (fun b ->
          b.insts <-
            List.filter
              (fun i ->
                let dead =
                  match i with
                  | T.Join x | T.Rejoin x | T.Cancel x -> not (ISet.mem x waited)
                  | T.Wait x | T.Wait_threshold (x, _) -> not (ISet.mem x joined)
                  | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _ | T.Lane _
                  | T.Nthreads _ | T.Rand _ | T.Randint _ | T.Call _ -> false
                in
                if dead then incr removed;
                not dead)
              b.insts))
    p.funcs;
  !removed

let run (p : T.program) =
  let dead_barrier_ops_removed = dead_barrier_pass p in
  let dce_removed =
    Hashtbl.fold (fun _ f acc -> acc + dce_pass f) p.funcs 0
  in
  { dce_removed; dead_barrier_ops_removed }
