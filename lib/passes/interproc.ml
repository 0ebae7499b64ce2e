module T = Ir.Types

type applied = {
  in_func : string;
  callee : string;
  barrier : T.barrier;
  region_start : int;
  call_blocks : int list;
  rejoin_sites : int list;
  cancel_blocks : int list;
}

let pp_applied ppf a =
  Format.fprintf ppf "%s: b%d join@bb%d wait@entry(%s) calls=[%s] cancels=[%s]" a.in_func
    a.barrier a.region_start a.callee
    (String.concat "; " (List.map string_of_int a.call_blocks))
    (String.concat "; " (List.map string_of_int a.cancel_blocks))

module Bool_lattice = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end

module Solver = Analysis.Dataflow.Make (Bool_lattice)

let is_call_to callee = function
  | T.Call { callee = c; _ } -> String.equal c callee
  | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _ | T.Lane _ | T.Nthreads _
  | T.Rand _ | T.Randint _ | T.Join _ | T.Rejoin _ | T.Wait _ | T.Wait_threshold _ | T.Cancel _ ->
    false

let is_join_of b = function
  | T.Join x | T.Rejoin x -> x = b
  | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _ | T.Lane _ | T.Nthreads _
  | T.Rand _ | T.Randint _ | T.Call _ | T.Wait _ | T.Wait_threshold _ | T.Cancel _ -> false

(* Caller-side analyses with the call instruction acting as the wait:
   liveness (backward: gen = call, kill = join) and membership (forward:
   gen = join, kill = call). *)
let analyses (f : T.func) ~callee ~b =
  let g = Analysis.Cfg.of_func f in
  let live =
    Solver.solve g Analysis.Dataflow.Backward ~boundary:false ~transfer:(fun id out ->
        List.fold_left
          (fun state i ->
            if is_call_to callee i then true else if is_join_of b i then false else state)
          out
          (List.rev (T.block f id).insts))
  in
  let joined =
    Solver.solve g Analysis.Dataflow.Forward ~boundary:false ~transfer:(fun id inv ->
        List.fold_left
          (fun state i ->
            if is_join_of b i then true else if is_call_to callee i then false else state)
          inv (T.block f id).insts)
  in
  (g, live, joined)

let apply_hint (p : T.program) cg (f : T.func) (hint : T.predict_hint) callee =
  if not (Hashtbl.mem p.funcs callee) then
    failwith (Printf.sprintf "Interproc: %s predicts unknown function %s" f.fname callee);
  if Analysis.Callgraph.is_recursive cg callee then
    failwith (Printf.sprintf "Interproc: cannot predict recursive function %s" callee);
  let call_blocks = Analysis.Callgraph.call_sites cg ~caller:f.fname ~callee in
  if call_blocks = [] then
    failwith (Printf.sprintf "Interproc: %s predicts %s but never calls it" f.fname callee);
  let b = Ir.Builder.fresh_barrier p in
  Ir.Builder.prepend f hint.region_start (T.Join b);
  (* Wait at the callee's entry: the propagated reconvergence point. *)
  let callee_func = Hashtbl.find p.funcs callee in
  let wait_inst =
    match hint.threshold with None -> T.Wait b | Some k -> T.Wait_threshold (b, k)
  in
  Ir.Builder.prepend callee_func callee_func.entry wait_inst;
  let g, live, joined = analyses f ~callee ~b in
  (* Rejoin after calls that may be followed by another region visit. *)
  let rejoin_sites = ref [] in
  T.iter_blocks f (fun blk ->
      (* Replay liveness backward through the block to find the state just
         after each instruction. *)
      let after_states =
        List.fold_right
          (fun i acc ->
            let after =
              match acc with
              | (before_next, _) :: _ -> before_next
              | [] -> Solver.after live blk.id
            in
            let before =
              if is_call_to callee i then true else if is_join_of b i then false else after
            in
            (before, after) :: acc)
          blk.insts []
      in
      let insertions = ref [] in
      List.iteri
        (fun idx i ->
          let _, after = List.nth after_states idx in
          if is_call_to callee i && after then insertions := idx :: !insertions)
        blk.insts;
      (* Insert from the back so earlier indices stay valid. *)
      List.iter
        (fun idx ->
          Ir.Edit.insert_at f blk.id (idx + 1) (T.Rejoin b);
          if not (List.mem blk.id !rejoin_sites) then rejoin_sites := blk.id :: !rejoin_sites)
        !insertions)
  ;
  (* Cancels at the liveness frontier. *)
  let cancel_blocks =
    List.filter
      (fun x ->
        Solver.before joined x
        && (not (Solver.before live x))
        && List.exists (fun pr -> Solver.before live pr) (Analysis.Cfg.preds g x))
      (Analysis.Cfg.nodes g)
  in
  List.iter (fun x -> Ir.Builder.prepend f x (T.Cancel b)) cancel_blocks;
  {
    in_func = f.fname;
    callee;
    barrier = b;
    region_start = hint.region_start;
    call_blocks;
    rejoin_sites = List.sort compare !rejoin_sites;
    cancel_blocks = List.sort compare cancel_blocks;
  }

let run (p : T.program) =
  let cg = Analysis.Callgraph.build p in
  let names = T.func_names p in
  List.concat_map
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      List.filter_map
        (fun (hint : T.predict_hint) ->
          match hint.target with
          | T.Callee_target callee -> Some (apply_hint p cg f hint callee)
          | T.Label_target _ -> None)
        f.hints)
    names
