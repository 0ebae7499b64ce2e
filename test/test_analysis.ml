(* Tests for the analysis library: CFG utilities, dominators and
   post-dominators, the dataflow solver, natural loops, divergence
   analysis, the paper's barrier analyses (checked against Figures 4 and
   5), call graphs, the cost model and profiles. *)

module T = Ir.Types
module B = Ir.Builder
module ISet = Analysis.Sets.Int_set

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let iset_of = ISet.of_list
let check_iset msg expected actual =
  check (Alcotest.list Alcotest.int) msg expected (ISet.elements actual)

(* Diamond: entry(0) -> then(1)/else(2) -> join(3) -> exit. *)
let diamond () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let c = B.fresh_reg f in
  let then_b = B.add_block f and else_b = B.add_block f and join = B.add_block f in
  B.append f f.T.entry (T.Tid c);
  B.set_term f f.T.entry (T.Br { cond = T.Reg c; if_true = then_b; if_false = else_b });
  B.set_term f then_b (T.Jump join);
  B.set_term f else_b (T.Jump join);
  B.set_term f join T.Exit;
  (p, f, then_b, else_b, join)

(* The Listing-1 / Figure-4 CFG:
   bb0: Join b0 (region start) -> bb1 (loop header / prolog)
   bb1 -> bb2 (condition)
   bb2: divergent branch -> bb3 (then: Wait b0) | bb4 (epilog)
   bb3 -> bb4
   bb4: loop branch -> bb1 | bb5 (exit)  *)
let figure4 ?(with_rejoin = false) ?(with_pdom_barrier = false) () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b0 = B.fresh_barrier p in
  let bb1 = B.add_block f and bb2 = B.add_block f and bb3 = B.add_block f in
  let bb4 = B.add_block f and bb5 = B.add_block f in
  let c = B.fresh_reg f and l = B.fresh_reg f in
  B.append f f.T.entry (T.Join b0);
  B.set_term f f.T.entry (T.Jump bb1);
  B.append f bb1 (T.Rand c);
  B.set_term f bb1 (T.Jump bb2);
  B.append f bb2 (T.Un (T.Ftoi, l, T.Reg c));
  B.set_term f bb2 (T.Br { cond = T.Reg l; if_true = bb3; if_false = bb4 });
  B.append f bb3 (T.Wait b0);
  if with_rejoin then B.append f bb3 (T.Rejoin b0);
  B.set_term f bb3 (T.Jump bb4);
  B.set_term f bb4 (T.Br { cond = T.Reg l; if_true = bb1; if_false = bb5 });
  B.set_term f bb5 T.Exit;
  let b1 =
    if with_pdom_barrier then begin
      (* the compiler's PDOM barrier for the divergent branch in bb2:
         joined at the branch, waited at its post-dominator bb4 *)
      let b1 = B.fresh_barrier p in
      B.append f bb2 (T.Join b1);
      B.prepend f bb4 (T.Wait b1);
      Some b1
    end
    else None
  in
  (p, f, b0, b1, (bb1, bb2, bb3, bb4, bb5))

(* ---- Cfg ---- *)

let test_cfg_basics () =
  let _, f, then_b, else_b, join = diamond () in
  let g = Analysis.Cfg.of_func f in
  check_int "entry" f.T.entry (Analysis.Cfg.entry g);
  check_int "size" 4 (Analysis.Cfg.size g);
  check (Alcotest.list Alcotest.int) "succs of entry" [ then_b; else_b ]
    (Analysis.Cfg.succs g f.T.entry);
  check (Alcotest.list Alcotest.int) "preds of join" [ then_b; else_b ]
    (List.sort compare (Analysis.Cfg.preds g join));
  check_bool "rpo starts at entry" true (List.hd (Analysis.Cfg.rpo g) = f.T.entry)

let test_cfg_reverse () =
  let _, f, _, _, join = diamond () in
  let g = Analysis.Cfg.of_func f in
  let r = Analysis.Cfg.reverse g in
  check_int "reverse entry is synthetic" Analysis.Cfg.synthetic_exit (Analysis.Cfg.entry r);
  check (Alcotest.list Alcotest.int) "exit points to sinks" [ join ]
    (Analysis.Cfg.succs r Analysis.Cfg.synthetic_exit);
  check (Alcotest.list Alcotest.int) "entry is a reverse sink" []
    (Analysis.Cfg.succs r f.T.entry)

let test_cfg_unreachable_excluded () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let orphan = B.add_block f in
  B.set_term f orphan T.Exit;
  B.set_term f f.T.entry T.Exit;
  let g = Analysis.Cfg.of_func f in
  check_bool "orphan excluded" false (Analysis.Cfg.mem g orphan)

(* ---- Dom ---- *)

let test_dom_diamond () =
  let _, f, then_b, else_b, join = diamond () in
  let g = Analysis.Cfg.of_func f in
  let dom = Analysis.Dom.compute g in
  check (Alcotest.option Alcotest.int) "idom then" (Some f.T.entry)
    (Analysis.Dom.idom dom then_b);
  check (Alcotest.option Alcotest.int) "idom join" (Some f.T.entry) (Analysis.Dom.idom dom join);
  check (Alcotest.option Alcotest.int) "idom entry" None (Analysis.Dom.idom dom f.T.entry);
  check_bool "entry dominates all" true
    (List.for_all (Analysis.Dom.dominates dom f.T.entry) [ then_b; else_b; join ]);
  check_bool "then does not dominate join" false (Analysis.Dom.dominates dom then_b join);
  check_bool "strict" false (Analysis.Dom.strictly_dominates dom join join);
  check_int "common ancestor of branches" f.T.entry
    (Analysis.Dom.common_ancestor dom then_b else_b);
  check (Alcotest.list Alcotest.int) "frontier of then" [ join ]
    (Analysis.Dom.frontiers dom g then_b)

let test_postdom_diamond () =
  let _, f, then_b, _, join = diamond () in
  let g = Analysis.Cfg.of_func f in
  let pd = Analysis.Dom.Post.compute g in
  check (Alcotest.option Alcotest.int) "ipdom of entry" (Some join)
    (Analysis.Dom.Post.ipdom pd f.T.entry);
  check (Alcotest.option Alcotest.int) "ipdom of then" (Some join)
    (Analysis.Dom.Post.ipdom pd then_b);
  check (Alcotest.option Alcotest.int) "ipdom of join is synthetic exit"
    (Some Analysis.Cfg.synthetic_exit)
    (Analysis.Dom.Post.ipdom pd join);
  check_bool "join postdominates then" true (Analysis.Dom.Post.postdominates pd join then_b)

let test_dom_loop () =
  let _, f, _, _, (bb1, bb2, bb3, bb4, bb5) = figure4 () in
  let g = Analysis.Cfg.of_func f in
  let dom = Analysis.Dom.compute g in
  check (Alcotest.option Alcotest.int) "idom header" (Some f.T.entry)
    (Analysis.Dom.idom dom bb1);
  check (Alcotest.option Alcotest.int) "idom then" (Some bb2) (Analysis.Dom.idom dom bb3);
  check (Alcotest.option Alcotest.int) "idom epilog" (Some bb2) (Analysis.Dom.idom dom bb4);
  check (Alcotest.option Alcotest.int) "idom exit" (Some bb4) (Analysis.Dom.idom dom bb5);
  let pd = Analysis.Dom.Post.compute g in
  check (Alcotest.option Alcotest.int) "ipdom of divergent branch" (Some bb4)
    (Analysis.Dom.Post.ipdom pd bb2)

(* QCheck: dominator sanity over random CFGs. *)
let random_cfg_gen =
  (* Blocks 0..n-1; block i terminates with a branch/jump to higher or
     random blocks or an exit; entry is 0. *)
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* choices = list_size (return n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, choices))

let build_random_cfg (n, choices) =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let blocks = Array.init n (fun i -> if i = 0 then f.T.entry else B.add_block f) in
  let c = B.fresh_reg f in
  B.append f f.T.entry (T.Tid c);
  List.iteri
    (fun i (a, b) ->
      if i < n then
        let term =
          if i = n - 1 then T.Exit
          else if a = b then T.Jump blocks.(a)
          else T.Br { cond = T.Reg c; if_true = blocks.(a); if_false = blocks.(b) }
        in
        B.set_term f blocks.(i) term)
    choices;
  (* make sure at least one exit is reachable: last block exits *)
  B.set_term f blocks.(n - 1) T.Exit;
  f

let prop_dom_sanity =
  QCheck2.Test.make ~name:"dom: idom dominates its node; entry dominates all" ~count:100
    random_cfg_gen (fun input ->
      let f = build_random_cfg input in
      let g = Analysis.Cfg.of_func f in
      let dom = Analysis.Dom.compute g in
      List.for_all
        (fun node ->
          Analysis.Dom.dominates dom (Analysis.Cfg.entry g) node
          &&
          match Analysis.Dom.idom dom node with
          | None -> node = Analysis.Cfg.entry g
          | Some parent -> Analysis.Dom.dominates dom parent node && parent <> node)
        (Analysis.Cfg.nodes g))

(* ---- Reference model for the one-pass frontiers and O(1) dominance ---- *)

(* Dominance as a walk up the idom chain: what Dom.dominates's pre/post
   numbering must agree with. *)
let rec dominates_ref dom a b =
  a = b
  || match Analysis.Dom.idom dom b with Some parent -> dominates_ref dom a parent | None -> false

(* The textbook dominance frontier: y is in DF(x) iff x dominates a
   predecessor of y and does not strictly dominate y. The definition
   assumes the root has no predecessor, which holds for reversed graphs
   (rooted at the synthetic exit) and for lowered functions. Returns the
   first disagreement of [df] or of Dom.dominates with the reference. *)
let frontier_mismatch dom g df =
  let nodes = Analysis.Cfg.nodes g in
  let show l = String.concat "," (List.map string_of_int l) in
  List.find_map
    (fun x ->
      let expected =
        List.filter
          (fun y ->
            List.exists (dominates_ref dom x) (Analysis.Cfg.preds g y)
            && not (x <> y && dominates_ref dom x y))
          nodes
        |> List.sort compare
      in
      if df x <> expected then
        Some (Printf.sprintf "DF(%d) = [%s], expected [%s]" x (show (df x)) (show expected))
      else
        List.find_map
          (fun y ->
            if Analysis.Dom.dominates dom x y <> dominates_ref dom x y then
              Some (Printf.sprintf "dominates %d %d disagrees with the idom chain" x y)
            else None)
          nodes)
    nodes

(* Both directions on [f]'s CFG, plus the nodes outside each tree: a
   block unreachable from the entry dominates and is dominated only by
   itself, and one that cannot reach an exit has no post-dominance
   frontier. *)
let frontiers_mismatch (f : T.func) =
  let g = Analysis.Cfg.of_func f in
  let dom = Analysis.Dom.compute g in
  let pt = Analysis.Dom.Post.compute g in
  let pdf = Analysis.Dom.Post.frontiers pt in
  let rg = Analysis.Dom.Post.graph pt in
  let ids = T.block_ids f in
  let alone u =
    List.for_all
      (fun x ->
        Analysis.Dom.dominates dom x u = (x = u) && Analysis.Dom.dominates dom u x = (x = u))
      ids
  in
  let outside_ok =
    List.for_all (fun id -> Analysis.Cfg.mem g id || alone id) ids
    && List.for_all (fun id -> Analysis.Cfg.mem rg id || pdf id = []) (Analysis.Cfg.nodes g)
  in
  if Analysis.Cfg.preds g (Analysis.Cfg.entry g) <> [] then Some "entry has a predecessor"
  else if not outside_ok then Some "a node outside a tree is misclassified"
  else
    match frontier_mismatch dom g (Analysis.Dom.frontiers dom g) with
    | Some m -> Some ("dominators: " ^ m)
    | None ->
      Option.map
        (fun m -> "post-dominators: " ^ m)
        (frontier_mismatch (Analysis.Dom.Post.tree pt) rg pdf)

(* Random CFGs as above, but no edge targets the entry. *)
let rootless_cfg_gen =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* choices = list_size (return n) (pair (int_range 1 (n - 1)) (int_range 1 (n - 1))) in
    return (n, choices))

let prop_frontiers_reference =
  QCheck2.Test.make ~name:"frontiers and dominates match the textbook definitions" ~count:300
    rootless_cfg_gen (fun input -> frontiers_mismatch (build_random_cfg input) = None)

let test_frontiers_registry () =
  List.iter
    (fun (spec : Workloads.Spec.t) ->
      List.iter
        (fun options ->
          let c =
            Core.Compile.compile
              { options with Core.Compile.coarsen = spec.Workloads.Spec.coarsen }
              ~source:spec.Workloads.Spec.source
          in
          Hashtbl.iter
            (fun name f ->
              check (Alcotest.option Alcotest.string)
                (Printf.sprintf "%s/%s" spec.Workloads.Spec.name name)
                None (frontiers_mismatch f))
            c.Core.Compile.program.T.funcs)
        [ Core.Compile.baseline; Core.Compile.speculative ])
    Workloads.Registry.all

(* ---- Dataflow ---- *)

module Bool_lattice = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end

module Bool_flow = Analysis.Dataflow.Make (Bool_lattice)

let test_dataflow_forward_reachability () =
  let _, f, _, _, (bb1, _, bb3, _, bb5) = figure4 () in
  let g = Analysis.Cfg.of_func f in
  (* "has passed bb3" as a forward may-analysis *)
  let r =
    Bool_flow.solve g Analysis.Dataflow.Forward ~boundary:false ~transfer:(fun id v ->
        v || id = bb3)
  in
  check_bool "bb5 may come after bb3" true (Bool_flow.before r bb5);
  check_bool "bb1 may come after bb3 (loop)" true (Bool_flow.before r bb1);
  check_bool "entry not after bb3" false (Bool_flow.before r f.T.entry)

let test_dataflow_backward_liveness_like () =
  let _, f, _, _, (_, _, bb3, _, bb5) = figure4 () in
  let g = Analysis.Cfg.of_func f in
  (* "may still reach bb3" as a backward analysis *)
  let r =
    Bool_flow.solve g Analysis.Dataflow.Backward ~boundary:false ~transfer:(fun id v ->
        v || id = bb3)
  in
  check_bool "entry can reach bb3" true (Bool_flow.before r f.T.entry);
  check_bool "exit cannot" false (Bool_flow.after r bb5)

(* ---- Loops ---- *)

let compile src = Front.Lower.compile_source src

let test_loops_nested () =
  let p =
    compile
      {|
kernel k(n: int) {
  var acc: int = 0;
  for i in 0 .. n {
    var j: int = 0;
    while (j < i) {
      acc = acc + 1;
      j = j + 1;
    }
  }
}
|}
  in
  let f = Hashtbl.find p.T.funcs "k" in
  let g = Analysis.Cfg.of_func f in
  let dom = Analysis.Dom.compute g in
  let loops = Analysis.Loops.compute g dom in
  let all = Analysis.Loops.loops loops in
  check_int "two loops" 2 (List.length all);
  let depths = List.sort compare (List.map (fun (l : Analysis.Loops.loop) -> l.depth) all) in
  check (Alcotest.list Alcotest.int) "nesting depths" [ 1; 2 ] depths;
  let inner = List.find (fun (l : Analysis.Loops.loop) -> l.depth = 2) all in
  let outer = List.find (fun (l : Analysis.Loops.loop) -> l.depth = 1) all in
  check (Alcotest.option Alcotest.int) "inner parent" (Some outer.header) inner.parent;
  check_bool "inner body within outer" true (ISet.subset inner.body outer.body);
  check_bool "outer has exits" true (outer.exits <> []);
  check_int "depth_of inner header" 2 (Analysis.Loops.depth_of loops inner.header);
  (match Analysis.Loops.innermost_containing loops inner.header with
  | Some l -> check_int "innermost of inner header" inner.header l.header
  | None -> Alcotest.fail "no innermost loop");
  check_bool "loop_of finds header" true (Analysis.Loops.loop_of loops outer.header <> None)

let test_loops_none () =
  let _, f, _, _, _ = diamond () in
  let g = Analysis.Cfg.of_func f in
  let loops = Analysis.Loops.compute g (Analysis.Dom.compute g) in
  check_int "no loops in a diamond" 0 (List.length (Analysis.Loops.loops loops))

(* ---- Divergence ---- *)

let test_divergence_sources () =
  let p =
    compile
      {|
global table: int[64];
func helper() -> int { return tid(); }
kernel k(n: int) {
  if (n > 0) { let a = 1; }           // uniform branch
  if (tid() > 0) { let b = 1; }       // divergent: tid
  if (rand() < 0.5) { let c = 1; }    // divergent: rand
  let t = table[0];                   // uniform load (uniform address)
  if (t > 0) { let d = 1; }           // uniform
  let h = helper();                   // divergent via callee
  if (h > 0) { let e = 1; }
}
|}
  in
  let d = Analysis.Divergence.run p in
  let branches = Analysis.Divergence.divergent_branches d ~func:"k" in
  (* exactly three divergent branches: tid, rand, helper *)
  check_int "three divergent branches" 3 (ISet.cardinal branches);
  check_bool "helper returns divergent" true (Analysis.Divergence.returns_divergent d ~func:"helper")

let test_divergence_control_dependence () =
  let p =
    compile
      {|
kernel k() {
  var x: int = 0;
  if (tid() > 0) { x = 1; }   // x assigned under divergent control
  if (x > 0) { let y = 1; }   // so this branch is divergent too
}
|}
  in
  let d = Analysis.Divergence.run p in
  check_int "both branches divergent" 2
    (ISet.cardinal (Analysis.Divergence.divergent_branches d ~func:"k"))

let test_divergence_memory () =
  let p =
    compile
      {|
global table: float[64];
kernel k() {
  let v = table[tid()];       // divergent address
  let u = table[3];           // uniform address
  table[tid()] = v + u;
}
|}
  in
  let d = Analysis.Divergence.run p in
  check_int "two divergent accesses (load + store)" 2
    (Analysis.Divergence.divergent_loads d ~func:"k")

(* ---- Barrier analyses: Figure 4 ---- *)

let test_joined_analysis_figure4 () =
  let _, f, b0, _, (bb1, bb2, bb3, bb4, bb5) = figure4 () in
  let ba = Analysis.Barrier_analysis.run f in
  (* Figure 4(b): joined everywhere except cleared at BB3's wait. *)
  check_iset "joined out of region start" [ b0 ]
    (Analysis.Barrier_analysis.joined_out ba f.T.entry);
  check_iset "joined out of header" [ b0 ] (Analysis.Barrier_analysis.joined_out ba bb1);
  check_iset "joined out of branch" [ b0 ] (Analysis.Barrier_analysis.joined_out ba bb2);
  check_iset "cleared after wait" [] (Analysis.Barrier_analysis.joined_out ba bb3);
  check_iset "joined out of epilog (merge)" [ b0 ] (Analysis.Barrier_analysis.joined_out ba bb4);
  check_iset "joined at exit" [ b0 ] (Analysis.Barrier_analysis.joined_in ba bb5)

let test_liveness_analysis_figure4 () =
  let _, f, b0, _, (bb1, bb2, bb3, bb4, bb5) = figure4 () in
  let ba = Analysis.Barrier_analysis.run f in
  (* Figure 4(c): live everywhere inside the loop; dead at exit. *)
  check_iset "live out of region start" [ b0 ] (Analysis.Barrier_analysis.live_out ba f.T.entry);
  check_iset "live out of header" [ b0 ] (Analysis.Barrier_analysis.live_out ba bb1);
  check_iset "live out of then (via loop)" [ b0 ] (Analysis.Barrier_analysis.live_out ba bb3);
  check_iset "live out of epilog" [ b0 ] (Analysis.Barrier_analysis.live_out ba bb4);
  check_iset "dead at exit" [] (Analysis.Barrier_analysis.live_in ba bb5);
  ignore bb2;
  (* instruction granularity: before the wait b0 is live, just after the
     wait (no rejoin in this variant) it is still live via the backedge *)
  check_bool "live before wait" true
    (ISet.mem b0
       (Analysis.Barrier_analysis.live_at ba { Analysis.Barrier_analysis.block = bb3; index = 0 }))

let test_conflicts_figure5 () =
  (* With the compiler's PDOM barrier added, the user barrier (wait at
     bb3, rejoin) and the PDOM barrier (join at bb2, wait at bb4) overlap
     non-inclusively: the paper's Figure-5 conflict. *)
  let _, f, b0, b1, _ = figure4 ~with_rejoin:true ~with_pdom_barrier:true () in
  let ba = Analysis.Barrier_analysis.run f in
  let b1 = Option.get b1 in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "conflict detected"
    [ (min b0 b1, max b0 b1) ]
    (Analysis.Barrier_analysis.conflicts ba)

let test_no_conflict_when_nested () =
  (* Without the rejoin, the user barrier's joined range is a strict
     subset question... use instead: a region barrier enclosing b0:
     joined at entry, waited at exit. Inclusive ranges must NOT report a
     conflict. *)
  let p, f, b0, _, (_, _, _, _, bb5) = figure4 () in
  let b2 = B.fresh_barrier p in
  (* the enclosing barrier joins first, exactly as Figure 4(d)'s BB0
     orders them; joining after b0 would open a one-point window where
     b0 is joined and b2 is not *)
  B.prepend f f.T.entry (T.Join b2);
  B.prepend f bb5 (T.Cancel b0);
  B.append f bb5 (T.Wait b2);
  (* keep block shape legal: move Wait before the Exit terminator *)
  let ba = Analysis.Barrier_analysis.run f in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "no conflict for nested"
    []
    (Analysis.Barrier_analysis.conflicts ba)

(* ---- Reference model for the conflict sweep ---- *)

module Point_set = Set.Make (struct
  type t = Analysis.Barrier_analysis.point

  let compare = compare
end)

(* The pairwise definition the sweep replaced: each barrier's joined range
   is the set of program points where joined_at holds it, and two ranges
   conflict when they intersect and neither is a subset of the other. *)
let conflicts_ref ba (f : T.func) =
  let module BA = Analysis.Barrier_analysis in
  let ids = T.block_ids f in
  let points =
    List.concat_map
      (fun block ->
        List.init (List.length (T.block f block).T.insts + 1) (fun index -> { BA.block; index }))
      ids
  in
  let barriers =
    List.sort_uniq compare
      (List.concat_map (fun id -> List.filter_map T.barrier_of (T.block f id).T.insts) ids)
  in
  let range b =
    Point_set.of_list (List.filter (fun pt -> ISet.mem b (BA.joined_at ba pt)) points)
  in
  let ranges = List.map (fun b -> (b, range b)) barriers in
  List.concat_map
    (fun (b1, r1) ->
      List.filter_map
        (fun (b2, r2) ->
          if
            b1 < b2
            && (not (Point_set.disjoint r1 r2))
            && (not (Point_set.subset r1 r2))
            && not (Point_set.subset r2 r1)
          then Some (b1, b2)
          else None)
        ranges)
    ranges

(* A range may end at a block's last point, the one before its [Exit]:
   b2 is still held there ("cleared ... by exiting", §4.3) while b1 is
   not, so the two ranges overlap at one point and neither contains the
   other. *)
let test_conflict_held_to_exit () =
  let p = B.create_program () in
  let f = B.create_func p "k" ~params:0 in
  B.set_kernel p "k";
  let b1 = B.fresh_barrier p and b2 = B.fresh_barrier p in
  List.iter (B.append f f.T.entry) [ T.Join b1; T.Join b2; T.Wait b1 ];
  B.set_term f f.T.entry T.Exit;
  let ba = Analysis.Barrier_analysis.run f in
  let pairs = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int) in
  check pairs "sweep" [ (b1, b2) ] (Analysis.Barrier_analysis.conflicts ba);
  check pairs "oracle" [ (b1, b2) ] (conflicts_ref ba f)

(* The programs Deconflict would see, where conflicts exist: the first
   200 generated programs at seed 17 and the registry, compiled under
   specrecon and auto with deconfliction and cleanup off. *)
let test_conflicts_reference () =
  let sources =
    List.init 200 (fun i ->
        (None, Front.Pretty.to_string (Fuzz.Gen.generate ~seed:17 i).Fuzz.Gen.ast))
    @ List.map
        (fun (s : Workloads.Spec.t) -> Workloads.Spec.(s.coarsen, s.source))
        Workloads.Registry.all
  in
  let modes = [ Core.Compile.speculative; Core.Compile.automatic ] in
  let with_conflicts = ref 0 in
  List.iter
    (fun (coarsen, source) ->
      List.iter
        (fun options ->
          let options =
            {
              options with
              Core.Compile.coarsen;
              deconflict = false;
              cleanup = false;
              lint = false;
              race = false;
            }
          in
          let p = (Core.Compile.compile options ~source).Core.Compile.program in
          let found = ref false in
          Hashtbl.iter
            (fun name f ->
              List.iter
                (fun ba ->
                  let expected = conflicts_ref ba f in
                  if expected <> [] then found := true;
                  check
                    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
                    name expected
                    (Analysis.Barrier_analysis.conflicts ba))
                [
                  Analysis.Barrier_analysis.run f;
                  (* with the §4.4 call-as-wait events, so the sweep's
                     call handling is exercised too *)
                  Analysis.Barrier_analysis.run
                    ~call_waits:(Analysis.Barrier_analysis.entry_waits p) f;
                ])
            p.T.funcs;
          if !found then incr with_conflicts)
        modes)
    sources;
  check_bool
    (Printf.sprintf "the slice holds conflicts (%d compiles with one)" !with_conflicts)
    true (!with_conflicts >= 50)

(* ---- Callgraph ---- *)

let test_callgraph () =
  let p =
    compile
      {|
func leaf(x: int) -> int { return x + 1; }
func mid(x: int) -> int { return leaf(x) + leaf(x + 1); }
func looper(x: int) -> int {
  if (x <= 0) { return 0; }
  return looper(x - 1);
}
kernel k() { let a = mid(1) + looper(3); }
|}
  in
  let cg = Analysis.Callgraph.build p in
  check (Alcotest.list Alcotest.string) "callees of k" [ "mid"; "looper" ]
    (Analysis.Callgraph.callees cg "k");
  check (Alcotest.list Alcotest.string) "callers of leaf" [ "mid" ]
    (Analysis.Callgraph.callers cg "leaf");
  check_bool "looper recursive" true (Analysis.Callgraph.is_recursive cg "looper");
  check_bool "leaf not recursive" false (Analysis.Callgraph.is_recursive cg "leaf");
  check_int "one call block of mid->leaf" 1
    (List.length (Analysis.Callgraph.call_sites cg ~caller:"mid" ~callee:"leaf"));
  let order = Analysis.Callgraph.bottom_up cg in
  let pos name = Option.get (List.find_index (String.equal name) order) in
  check_bool "leaf before mid" true (pos "leaf" < pos "mid");
  check_bool "mid before k" true (pos "mid" < pos "k")

(* ---- Costmodel & Profile ---- *)

let test_costmodel () =
  let w = Analysis.Costmodel.default_weights in
  check_int "alu" w.Analysis.Costmodel.alu
    (Analysis.Costmodel.inst_cost w (T.Bin (T.Add, 0, T.Imm (T.I 1), T.Imm (T.I 2))));
  check_int "special" w.Analysis.Costmodel.special
    (Analysis.Costmodel.inst_cost w (T.Un (T.Sqrt, 0, T.Imm (T.F 2.0))));
  check_int "memory" w.Analysis.Costmodel.memory
    (Analysis.Costmodel.inst_cost w (T.Load (0, T.Imm (T.I 0))));
  check_int "barrier" w.Analysis.Costmodel.barrier (Analysis.Costmodel.inst_cost w (T.Join 0));
  let p =
    compile
      {|
kernel k(n: int) {
  var acc: int = 0;
  for i in 0 .. n {
    acc = acc + 1;
  }
}
|}
  in
  let f = Hashtbl.find p.T.funcs "k" in
  let g = Analysis.Cfg.of_func f in
  let loops = Analysis.Loops.compute g (Analysis.Dom.compute g) in
  let all_blocks = iset_of (Analysis.Cfg.nodes g) in
  let static = Analysis.Costmodel.region_cost w f all_blocks ~loops ~profile:None in
  check_bool "loop blocks amplified" true (static > 0.0);
  (* deeper nesting costs more than flat code of the same size *)
  let loop_body =
    iset_of
      (List.filter (fun b -> Analysis.Loops.depth_of loops b > 0) (Analysis.Cfg.nodes g))
  in
  let flat = ISet.diff all_blocks loop_body in
  let body_cost = Analysis.Costmodel.region_cost w f loop_body ~loops ~profile:None in
  let flat_cost = Analysis.Costmodel.region_cost w f flat ~loops ~profile:None in
  check_bool "loop body dominates" true (body_cost > flat_cost)

let test_profile () =
  let pr = Analysis.Profile.empty () in
  check_int "empty is zero" 0 (Analysis.Profile.count pr ~func:"k" ~block:1);
  Analysis.Profile.record pr ~func:"k" ~block:1 ~count:10;
  Analysis.Profile.record pr ~func:"k" ~block:1 ~count:5;
  check_int "accumulates" 15 (Analysis.Profile.count pr ~func:"k" ~block:1);
  check_int "absent is zero" 0 (Analysis.Profile.count pr ~func:"k" ~block:9);
  check_int "other functions are apart" 0 (Analysis.Profile.count pr ~func:"f" ~block:1)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "analysis.cfg",
      [
        Alcotest.test_case "basics" `Quick test_cfg_basics;
        Alcotest.test_case "reverse" `Quick test_cfg_reverse;
        Alcotest.test_case "unreachable excluded" `Quick test_cfg_unreachable_excluded;
      ] );
    ( "analysis.dom",
      [
        Alcotest.test_case "diamond" `Quick test_dom_diamond;
        Alcotest.test_case "postdom diamond" `Quick test_postdom_diamond;
        Alcotest.test_case "loop" `Quick test_dom_loop;
        qtest prop_dom_sanity;
        qtest prop_frontiers_reference;
        Alcotest.test_case "frontiers on registry functions" `Quick test_frontiers_registry;
      ] );
    ( "analysis.dataflow",
      [
        Alcotest.test_case "forward" `Quick test_dataflow_forward_reachability;
        Alcotest.test_case "backward" `Quick test_dataflow_backward_liveness_like;
      ] );
    ( "analysis.loops",
      [
        Alcotest.test_case "nested" `Quick test_loops_nested;
        Alcotest.test_case "none" `Quick test_loops_none;
      ] );
    ( "analysis.divergence",
      [
        Alcotest.test_case "sources" `Quick test_divergence_sources;
        Alcotest.test_case "control dependence" `Quick test_divergence_control_dependence;
        Alcotest.test_case "memory" `Quick test_divergence_memory;
      ] );
    ( "analysis.barriers",
      [
        Alcotest.test_case "joined analysis (Fig 4b)" `Quick test_joined_analysis_figure4;
        Alcotest.test_case "live analysis (Fig 4c)" `Quick test_liveness_analysis_figure4;
        Alcotest.test_case "conflict (Fig 5)" `Quick test_conflicts_figure5;
        Alcotest.test_case "no conflict when nested" `Quick test_no_conflict_when_nested;
        Alcotest.test_case "conflict held to exit" `Quick test_conflict_held_to_exit;
        Alcotest.test_case "conflict sweep matches the pairwise oracle" `Slow
          test_conflicts_reference;
      ] );
    ("analysis.callgraph", [ Alcotest.test_case "basics" `Quick test_callgraph ]);
    ( "analysis.costmodel",
      [
        Alcotest.test_case "costs" `Quick test_costmodel;
        Alcotest.test_case "profile" `Quick test_profile;
      ] );
  ]
