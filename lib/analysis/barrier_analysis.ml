open Sets

type point = { block : int; index : int }

module Set_lattice = struct
  type t = Int_set.t

  let bottom = Int_set.empty
  let equal = Int_set.equal
  let join = Int_set.union
end

module Solver = Dataflow.Make (Set_lattice)

(* Effect of one instruction on the joined-barrier state (forward).
   [call_waits callee] is the set of barriers whose wait sits at
   [callee]'s entry (§4.4 interprocedural propagation): in the caller the
   call itself is the wait event, so it clears membership like a [Wait]
   would. Barriers the caller never joined are unaffected. *)
let joined_step ~call_waits state inst =
  match inst with
  | Ir.Types.Join b | Ir.Types.Rejoin b -> Int_set.add b state
  | Ir.Types.Wait b | Ir.Types.Wait_threshold (b, _) | Ir.Types.Cancel b -> Int_set.remove b state
  | Ir.Types.Call { callee; _ } -> Int_set.diff state (call_waits callee)
  | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _ | Ir.Types.Store _
  | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _ | Ir.Types.Rand _
  | Ir.Types.Randint _ -> state

(* Effect of one instruction on the live-barrier state (backward: the
   state *before* the instruction given the state after it). *)
let live_step ~call_waits state inst =
  match inst with
  | Ir.Types.Wait b | Ir.Types.Wait_threshold (b, _) -> Int_set.add b state
  | Ir.Types.Join b | Ir.Types.Rejoin b -> Int_set.remove b state
  | Ir.Types.Call { callee; _ } -> Int_set.union state (call_waits callee)
  | Ir.Types.Cancel _ | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _
  | Ir.Types.Store _ | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _ | Ir.Types.Rand _
  | Ir.Types.Randint _ -> state

(* A snapshot of every function's entry-block waits, taken when applied
   to the program. *)
let entry_waits (p : Ir.Types.program) =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name (f : Ir.Types.func) ->
      let waits =
        List.fold_left
          (fun acc i ->
            match i with
            | Ir.Types.Wait b | Ir.Types.Wait_threshold (b, _) -> Int_set.add b acc
            | Ir.Types.Join _ | Ir.Types.Rejoin _ | Ir.Types.Cancel _ | Ir.Types.Bin _
            | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _ | Ir.Types.Store _
            | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _ | Ir.Types.Rand _
            | Ir.Types.Randint _ | Ir.Types.Call _ -> acc)
          Int_set.empty (Ir.Types.block f f.entry).insts
      in
      Hashtbl.replace tbl name waits)
    p.funcs;
  fun callee -> Option.value (Hashtbl.find_opt tbl callee) ~default:Int_set.empty

type t = {
  func : Ir.Types.func;
  call_waits : string -> Int_set.t;
  joined : Solver.result;
  live : Solver.result;
}

let no_call_waits _ = Int_set.empty

let run ?(call_waits = no_call_waits) (func : Ir.Types.func) =
  let g = Cfg.of_func func in
  let joined =
    Solver.solve g Dataflow.Forward ~boundary:Int_set.empty ~transfer:(fun id state ->
        List.fold_left (joined_step ~call_waits) state (Ir.Types.block func id).insts)
  in
  let live =
    Solver.solve g Dataflow.Backward ~boundary:Int_set.empty ~transfer:(fun id state ->
        List.fold_left (live_step ~call_waits) state
          (List.rev (Ir.Types.block func id).insts))
  in
  { func; call_waits; joined; live }

let joined_in t id = Solver.before t.joined id
let joined_out t id = Solver.after t.joined id
let live_in t id = Solver.before t.live id
let live_out t id = Solver.after t.live id

let joined_at t { block; index } =
  let insts = (Ir.Types.block t.func block).insts in
  let rec replay state i = function
    | [] -> state
    | inst :: rest ->
      if i >= index then state
      else replay (joined_step ~call_waits:t.call_waits state inst) (i + 1) rest
  in
  replay (joined_in t block) 0 insts

let live_at t { block; index } =
  (* Replay backward from the block's live-out down to the point. *)
  let suffix = List.filteri (fun i _ -> i >= index) (Ir.Types.block t.func block).insts in
  List.fold_left (live_step ~call_waits:t.call_waits) (live_out t block) (List.rev suffix)

let conflicts t =
  (* §4.3: "a barrier live range extends from the moment threads join the
     barrier until the barrier is cleared either by waiting or exiting" —
     i.e. the joined range (Equation 1, with the effects of already
     inserted Cancel/Rejoin primitives), which is what Figure 5's interval
     arrows depict. Two ranges conflict when they overlap and neither
     contains the other. One replay per block visits every point once,
     counting the points in each barrier's range and in each pair's
     intersection: the pair overlaps iff it shares a point, and a range
     lies inside the other iff the shared count equals its own. *)
  let size = Hashtbl.create 16 and shared = Hashtbl.create 16 in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)
  in
  let rec count = function
    | [] -> ()
    | b1 :: rest ->
      bump size b1;
      List.iter (fun b2 -> bump shared (b1, b2)) rest;
      count rest
  in
  Ir.Types.iter_blocks t.func (fun b ->
      let exit_state =
        List.fold_left
          (fun state inst ->
            count (Int_set.elements state);
            joined_step ~call_waits:t.call_waits state inst)
          (joined_in t b.id) b.insts
      in
      count (Int_set.elements exit_state));
  Hashtbl.fold
    (fun (b1, b2) n acc ->
      if n < Hashtbl.find size b1 && n < Hashtbl.find size b2 then (b1, b2) :: acc else acc)
    shared []
  |> List.sort compare

let pp ppf t =
  Ir.Types.iter_blocks t.func (fun b ->
      Format.fprintf ppf "bb%d: joined_in=%a joined_out=%a live_in=%a live_out=%a@." b.id
        pp_int_set (joined_in t b.id) pp_int_set (joined_out t b.id) pp_int_set (live_in t b.id)
        pp_int_set (live_out t b.id))
