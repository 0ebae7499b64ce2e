let synthetic_exit = -1

type t = {
  entry : int;
  order : int list; (* reverse post order from entry *)
  reachable : (int, unit) Hashtbl.t; (* the nodes of [order] *)
  succ_tbl : (int, int list) Hashtbl.t;
  pred_tbl : (int, int list) Hashtbl.t;
}

let lookup tbl id = Option.value (Hashtbl.find_opt tbl id) ~default:[]

let compute_rpo ~entry ~succs_of =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter visit (succs_of id);
      order := id :: !order
    end
  in
  visit entry;
  !order

let build ~entry ~edges =
  let succ_tbl = Hashtbl.create 16 in
  let pred_tbl = Hashtbl.create 16 in
  List.iter
    (fun (src, dst) ->
      Hashtbl.replace succ_tbl src (lookup succ_tbl src @ [ dst ]);
      Hashtbl.replace pred_tbl dst (lookup pred_tbl dst @ [ src ]))
    edges;
  let order = compute_rpo ~entry ~succs_of:(lookup succ_tbl) in
  (* Restrict edge tables to reachable nodes so preds of a reachable node
     never mention unreachable ones. *)
  let reachable = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace reachable id ()) order;
  let restrict tbl =
    Hashtbl.iter
      (fun id targets ->
        if Hashtbl.mem reachable id then
          Hashtbl.replace tbl id (List.filter (Hashtbl.mem reachable) targets)
        else Hashtbl.remove tbl id)
      (Hashtbl.copy tbl)
  in
  restrict succ_tbl;
  restrict pred_tbl;
  { entry; order; reachable; succ_tbl; pred_tbl }

let of_func ?live_edge (f : Ir.Types.func) =
  let keep = match live_edge with None -> fun _ _ -> true | Some p -> p in
  let edges = ref [] in
  Ir.Types.iter_blocks f (fun b ->
      List.iter
        (fun s -> if keep b.Ir.Types.id s then edges := (b.Ir.Types.id, s) :: !edges)
        (Ir.Types.successors b.Ir.Types.term));
  build ~entry:f.Ir.Types.entry ~edges:(List.rev !edges)

let entry g = g.entry
let nodes g = g.order
let succs g id = lookup g.succ_tbl id
let preds g id = lookup g.pred_tbl id
let mem g id = Hashtbl.mem g.reachable id
let size g = List.length g.order
let rpo g = g.order

let reverse g =
  let sinks = List.filter (fun id -> succs g id = []) g.order in
  let flipped =
    List.concat_map (fun src -> List.map (fun dst -> (dst, src)) (succs g src)) g.order
  in
  let exit_edges = List.map (fun sink -> (synthetic_exit, sink)) sinks in
  build ~entry:synthetic_exit ~edges:(exit_edges @ flipped)

let pp ppf g =
  Format.fprintf ppf "entry bb%d@." g.entry;
  List.iter
    (fun id ->
      Format.fprintf ppf "bb%d -> [%s]@." id
        (String.concat "; " (List.map string_of_int (succs g id))))
    g.order
