type t = {
  root : int;
  idom_tbl : (int, int) Hashtbl.t; (* node -> immediate dominator; root maps to itself *)
  rpo_index : (int, int) Hashtbl.t;
  interval : (int, int * int) Hashtbl.t; (* node -> (preorder, postorder) in the tree *)
}

(* Pre/post numbers of a depth-first walk of the tree: [a] dominates [b]
   iff [b]'s interval nests inside [a]'s. Children are visited in RPO so
   the numbering is deterministic. *)
let number_tree ~root ~order idom_tbl =
  let kids = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match Hashtbl.find_opt idom_tbl id with
      | Some parent when id <> root -> Hashtbl.add kids parent id
      | Some _ | None -> ())
    (List.rev order);
  let interval = Hashtbl.create 16 in
  let clock = ref 0 in
  let rec visit id =
    let pre = !clock in
    incr clock;
    List.iter visit (Hashtbl.find_all kids id);
    Hashtbl.replace interval id (pre, !clock);
    incr clock
  in
  visit root;
  interval

(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm". *)
let compute g =
  let order = Cfg.rpo g in
  let rpo_index = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace rpo_index id i) order;
  let idom_tbl = Hashtbl.create 16 in
  let root = Cfg.entry g in
  Hashtbl.replace idom_tbl root root;
  let intersect a b =
    let rec walk a b =
      if a = b then a
      else
        let ia = Hashtbl.find rpo_index a and ib = Hashtbl.find rpo_index b in
        if ia > ib then walk (Hashtbl.find idom_tbl a) b else walk a (Hashtbl.find idom_tbl b)
    in
    walk a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> root then begin
          let processed_preds =
            List.filter (fun p -> Hashtbl.mem idom_tbl p) (Cfg.preds g id)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if Hashtbl.find_opt idom_tbl id <> Some new_idom then begin
              Hashtbl.replace idom_tbl id new_idom;
              changed := true
            end
        end)
      order
  done;
  { root; idom_tbl; rpo_index; interval = number_tree ~root ~order idom_tbl }

let idom t id =
  if id = t.root then None
  else Hashtbl.find_opt t.idom_tbl id

let dominates t a b =
  a = b
  ||
  match (Hashtbl.find_opt t.interval a, Hashtbl.find_opt t.interval b) with
  | Some (pre_a, post_a), Some (pre_b, post_b) -> pre_a < pre_b && post_b < post_a
  | _ -> false

let strictly_dominates t a b = a <> b && dominates t a b

(* Cooper, Harvey & Kennedy's frontier pass: a join point with several
   predecessors is in the frontier of every dominator of a predecessor up
   to (but excluding) the join's immediate dominator. One walk per
   (join, predecessor) edge fills every node's frontier at once. *)
let frontiers t g =
  let table = Hashtbl.create 16 in
  List.iter
    (fun join ->
      match Cfg.preds g join with
      | [] | [ _ ] -> ()
      | preds ->
        let stop = Hashtbl.find_opt t.idom_tbl join in
        List.iter
          (fun pred ->
            let rec runner node =
              if Some node <> stop then begin
                (* Walks from [join]'s predecessors run back to back, so a
                   repeat of [join] can only sit at the head of the list. *)
                (match Hashtbl.find_opt table node with
                | Some (j :: _) when j = join -> ()
                | Some joins -> Hashtbl.replace table node (join :: joins)
                | None -> Hashtbl.replace table node [ join ]);
                match idom t node with Some parent -> runner parent | None -> ()
              end
            in
            if Hashtbl.mem t.idom_tbl pred then runner pred)
          preds)
    (Cfg.nodes g);
  Hashtbl.filter_map_inplace (fun _ joins -> Some (List.sort compare joins)) table;
  fun id -> Option.value (Hashtbl.find_opt table id) ~default:[]

let common_ancestor t a b =
  if not (Hashtbl.mem t.idom_tbl a) then
    invalid_arg (Printf.sprintf "Dom.common_ancestor: node %d unreachable" a);
  if not (Hashtbl.mem t.idom_tbl b) then
    invalid_arg (Printf.sprintf "Dom.common_ancestor: node %d unreachable" b);
  let rec walk a b =
    if a = b then a
    else
      let ia = Hashtbl.find t.rpo_index a and ib = Hashtbl.find t.rpo_index b in
      if ia > ib then walk (Hashtbl.find t.idom_tbl a) b else walk a (Hashtbl.find t.idom_tbl b)
  in
  walk a b

module Post = struct
  type pt = { tree : t; rgraph : Cfg.t }

  let compute g =
    let rgraph = Cfg.reverse g in
    { tree = compute rgraph; rgraph }

  let ipdom pt id = idom pt.tree id
  let postdominates pt a b = dominates pt.tree a b
  let frontiers pt = frontiers pt.tree pt.rgraph
  let tree pt = pt.tree
  let graph pt = pt.rgraph
end
