module T = Ir.Types
module BA = Analysis.Barrier_analysis
module ISet = Analysis.Sets.Int_set

type applied = {
  in_func : string;
  hint : T.predict_hint;
  user_barrier : T.barrier;
  region_barrier : T.barrier option;
  target_block : int;
  region_start : int;
  rejoined : bool;
  cancel_blocks : int list;
}

let pp_applied ppf a =
  Format.fprintf ppf
    "%s: b%d join@bb%d wait@bb%d%s%s cancels=[%s]%s" a.in_func a.user_barrier a.region_start
    a.target_block
    (match a.hint.threshold with None -> "" | Some k -> Printf.sprintf " threshold=%d" k)
    (if a.rejoined then " rejoin" else "")
    (String.concat "; " (List.map string_of_int a.cancel_blocks))
    (match a.region_barrier with
    | None -> ""
    | Some b -> Printf.sprintf " region=b%d" b)

(* The region's common post-dominator: nearest common ancestor, in the
   post-dominator tree, of every block where the user barrier is live.
   Walk upward while the candidate still lies inside the region. *)
let region_postdom pdom region_blocks =
  match ISet.elements region_blocks with
  | [] -> None
  | first :: rest ->
    let tree = Analysis.Dom.Post.tree pdom in
    let common =
      List.fold_left (fun acc n -> Analysis.Dom.common_ancestor tree acc n) first rest
    in
    let rec hoist node =
      if node = Analysis.Cfg.synthetic_exit then None
      else if ISet.mem node region_blocks then
        match Analysis.Dom.Post.ipdom pdom node with
        | Some parent when parent <> node -> hoist parent
        | Some _ | None -> None
      else Some node
    in
    hoist common

let apply_hint (p : T.program) (f : T.func) (hint : T.predict_hint) label =
  let target_block =
    match Ir.Builder.label_block f label with
    | Some b -> b
    | None -> failwith (Printf.sprintf "Specrecon: unknown label %s in %s" label f.fname)
  in
  let region_start = hint.region_start in
  let b0 = Ir.Builder.fresh_barrier p in
  Ir.Builder.prepend f region_start (T.Join b0);
  let wait_inst =
    match hint.threshold with None -> T.Wait b0 | Some k -> T.Wait_threshold (b0, k)
  in
  Ir.Builder.prepend f target_block wait_inst;
  (* Rejoin: does some path past the wait reach another wait on b0
     (typically the same one, around a loop)? *)
  let ba = BA.run f in
  let live_after_wait = BA.live_at ba { BA.block = target_block; index = 1 } in
  let rejoined = ISet.mem b0 live_after_wait in
  if rejoined then Ir.Edit.insert_at f target_block 1 (T.Rejoin b0);
  (* Cancels at the liveness frontier, from a fresh analysis that includes
     the rejoin. *)
  let ba = BA.run f in
  let g = Analysis.Cfg.of_func f in
  let cancel_blocks =
    List.filter
      (fun x ->
        ISet.mem b0 (BA.joined_in ba x)
        && (not (ISet.mem b0 (BA.live_in ba x)))
        && List.exists (fun pr -> ISet.mem b0 (BA.live_in ba pr)) (Analysis.Cfg.preds g x))
      (Analysis.Cfg.nodes g)
  in
  List.iter (fun x -> Ir.Builder.prepend f x (T.Cancel b0)) cancel_blocks;
  (* Region barrier: reconverge every thread at the region exit. *)
  let region_blocks =
    List.fold_left
      (fun acc x ->
        if ISet.mem b0 (BA.live_in ba x) || ISet.mem b0 (BA.live_out ba x) then ISet.add x acc
        else acc)
      (ISet.singleton region_start)
      (Analysis.Cfg.nodes g)
  in
  let pdom = Analysis.Dom.Post.compute g in
  let region_barrier =
    match region_postdom pdom region_blocks with
    | None -> None
    | Some exit_block ->
      let b1 = Ir.Builder.fresh_barrier p in
      Ir.Builder.prepend f region_start (T.Join b1);
      (* The region wait goes after the frontier cancels already sitting
         at the exit block, mirroring Figure 4(d)'s BB5. *)
      Ir.Edit.insert_after_leading f exit_block
        ~skip:(fun i -> match i with T.Cancel _ -> true | _ -> false)
        (T.Wait b1);
      Some b1
  in
  {
    in_func = f.fname;
    hint;
    user_barrier = b0;
    region_barrier;
    target_block;
    region_start;
    rejoined;
    cancel_blocks = List.sort compare cancel_blocks;
  }

let run (p : T.program) =
  let names = T.func_names p in
  List.concat_map
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      List.filter_map
        (fun (hint : T.predict_hint) ->
          match hint.target with
          | T.Label_target label -> Some (apply_hint p f hint label)
          | T.Callee_target _ -> None)
        f.hints)
    names
