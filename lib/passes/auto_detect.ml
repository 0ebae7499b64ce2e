module T = Ir.Types
module ISet = Analysis.Sets.Int_set

type kind = Iteration_delay | Loop_merge

type params = {
  min_gain_ratio : float;
  weights : Analysis.Costmodel.weights;
  memory_penalty : float;
}

let default_params =
  { min_gain_ratio = 1.5; weights = Analysis.Costmodel.default_weights; memory_penalty = 0.5 }

type candidate = {
  in_func : string;
  kind : kind;
  target_block : int;
  region_start : int;
  scope : ISet.t;
  score : float;
  common_cost : float;
  serial_cost : float;
}

let kind_name = function Iteration_delay -> "iteration-delay" | Loop_merge -> "loop-merge"

let pp_candidate ppf c =
  Format.fprintf ppf "%s: %s target=bb%d region=bb%d score=%.2f (common=%.0f serial=%.0f)"
    c.in_func (kind_name c.kind) c.target_block c.region_start c.score c.common_cost
    c.serial_cost

(* Predict location for a loop: its immediate dominator outside the loop
   body (the preheader-like block executed once per region entry). *)
let region_start_of_loop dom (loop : Analysis.Loops.loop) =
  let rec hoist node =
    match Analysis.Dom.idom dom node with
    | Some parent when parent <> node ->
      if ISet.mem parent loop.Analysis.Loops.body then hoist parent else Some parent
    | Some _ | None -> None
  in
  hoist loop.Analysis.Loops.header

(* Divergent memory-access penalty (§4.5 "memory access patterns"):
   accesses in the serialized region whose addresses are currently
   uniform would become divergent once threads traverse the region out of
   lock step. *)
let uniform_accesses (f : T.func) divergence blocks =
  let divregs = Analysis.Divergence.divergent_regs divergence ~func:f.fname in
  let uniform_addr = function
    | T.Imm _ -> true
    | T.Reg r -> not (ISet.mem r divregs)
  in
  ISet.fold
    (fun id acc ->
      List.fold_left
        (fun acc i ->
          match i with
          | T.Load (_, a) | T.Store (a, _) -> if uniform_addr a then acc + 1 else acc
          | T.Bin _ | T.Un _ | T.Mov _ | T.Tid _ | T.Lane _ | T.Nthreads _ | T.Rand _
          | T.Randint _ | T.Call _ | T.Join _ | T.Rejoin _ | T.Wait _ | T.Wait_threshold _
          | T.Cancel _ -> acc)
        acc (T.block f id).insts)
    blocks 0

let score_candidate params ~profile ~loops (f : T.func) divergence ~common ~serial =
  let cost blocks = Analysis.Costmodel.region_cost params.weights f blocks ~loops ~profile in
  let common_cost = cost common in
  let mem_pen =
    params.memory_penalty
    *. float_of_int (uniform_accesses f divergence serial)
    *. float_of_int params.weights.Analysis.Costmodel.memory
  in
  let serial_cost = cost serial +. mem_pen in
  let score = if serial_cost <= 0.0 then common_cost else common_cost /. serial_cost in
  (score, common_cost, serial_cost)

(* Blocks of [loop] dominated by [x]. *)
let dominated_within dom (loop : Analysis.Loops.loop) x =
  ISet.filter (fun n -> Analysis.Dom.dominates dom x n) loop.Analysis.Loops.body

(* Scalar-evolution-lite refinement of the divergence analysis's
   conservatism: a branch comparing a constant-stepped induction variable
   against a constant bound has the same outcome for every thread that
   reaches it, even when control-dependence formally marks the registers
   divergent (the classic partial-divergence imprecision the paper's
   "static analysis is ... too conservative" remark refers to). *)
let uniform_trip_branch (f : T.func) block_id =
  let defs_of r =
    let acc = ref [] in
    T.iter_blocks f (fun b ->
        List.iter (fun i -> if List.mem r (T.defs i) then acc := i :: !acc) b.insts);
    !acc
  in
  let is_step_of r i =
    match i with
    | T.Bin ((T.Add | T.Sub), _, T.Reg s, T.Imm _) | T.Bin ((T.Add | T.Sub), _, T.Imm _, T.Reg s)
      -> s = r
    | _ -> false
  in
  (* A counter has exactly one constant initialisation and is otherwise
     only stepped by constants. A flag assigned different constants under
     divergent control (e.g. [alive = 0]) is NOT a counter. *)
  let is_counter r =
    let defs = defs_of r in
    let inits, rest =
      List.partition (fun i -> match i with T.Mov (_, T.Imm _) -> true | _ -> false) defs
    in
    List.length inits = 1 && rest <> []
    && List.for_all
         (fun i ->
           match i with
           (* assignments route through a temp: k = k + 1 is
              t := k + 1; k := t *)
           | T.Mov (_, T.Reg t) -> defs_of t <> [] && List.for_all (is_step_of r) (defs_of t)
           | i -> is_step_of r i)
         rest
  in
  match (T.block f block_id).term with
  | T.Br { cond = T.Reg c; _ } ->
    List.exists
      (fun i ->
        match i with
        | T.Bin ((T.Lt | T.Le | T.Gt | T.Ge | T.Eq | T.Ne), d, T.Reg iv, T.Imm _)
        | T.Bin ((T.Lt | T.Le | T.Gt | T.Ge | T.Eq | T.Ne), d, T.Imm _, T.Reg iv) ->
          d = c && is_counter iv
        | _ -> false)
      (T.block f block_id).insts
  | T.Br _ | T.Jump _ | T.Ret _ | T.Exit -> false

let has_divergent_exit (f : T.func) div_branches (loop : Analysis.Loops.loop) =
  ISet.exists
    (fun id ->
      ISet.mem id div_branches
      && (not (uniform_trip_branch f id))
      && List.exists
           (fun s -> not (ISet.mem s loop.Analysis.Loops.body))
           (T.successors (T.block f id).term))
    loop.Analysis.Loops.body

(* The inner loop's collection point: the header's in-loop branch
   successor (the first body block), or the header itself when the header
   does not branch. *)
let loop_body_entry (f : T.func) (loop : Analysis.Loops.loop) =
  match (T.block f loop.Analysis.Loops.header).term with
  | T.Br { if_true; if_false; _ } ->
    if ISet.mem if_true loop.Analysis.Loops.body then if_true
    else if ISet.mem if_false loop.Analysis.Loops.body then if_false
    else loop.Analysis.Loops.header
  | T.Jump _ | T.Ret _ | T.Exit -> loop.Analysis.Loops.header

(* Blocks control-dependent on a divergent branch within [blocks]: code
   that executes with a partial mask no matter how threads are collected.
   Loop Merge cannot make these convergent, so they do not count toward
   the common-code benefit (§4.5's "divergence properties"). *)
let divergently_executed pdf div_branches blocks =
  (* Transitive control dependence: a block nested under a uniform inner
     structure that is itself guarded by a divergent branch still executes
     divergently. *)
  let result = ref ISet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    ISet.iter
      (fun x ->
        if not (ISet.mem x !result) then
          let depends =
            List.exists
              (fun b ->
                ISet.mem b blocks && (ISet.mem b div_branches || ISet.mem b !result))
              (pdf x)
          in
          if depends then begin
            result := ISet.add x !result;
            changed := true
          end)
      blocks
  done;
  !result

let detect_in_func ?profile params (p : T.program) divergence name =
  let f = Hashtbl.find p.funcs name in
  if f.hints <> [] then []
  else begin
    let g = Analysis.Cfg.of_func f in
    let dom = Analysis.Dom.compute g in
    let pdom = Analysis.Dom.Post.compute g in
    let pdf = Analysis.Dom.Post.frontiers pdom in
    let loops = Analysis.Loops.compute g dom in
    let div_branches = Analysis.Divergence.divergent_branches divergence ~func:name in
    let all = Analysis.Loops.loops loops in
    let score = score_candidate params ~profile ~loops f divergence in
    (* Loop Merge: divergent-trip inner loop inside an outer loop. *)
    let loop_merge =
      List.filter_map
        (fun (li : Analysis.Loops.loop) ->
          match li.parent with
          | Some parent_header when has_divergent_exit f div_branches li -> (
            match Analysis.Loops.loop_of loops parent_header with
            | None -> None
            | Some lo -> (
              match region_start_of_loop dom lo with
              | None -> None
              | Some region_start ->
                let serial = ISet.diff lo.body li.body in
                (* Only divergence that collection cannot fix discounts
                   the body: branches wholly inside the inner loop. Its
                   divergent *exit* branch is the very thing Loop Merge
                   repairs, so it does not count. *)
                let interior_div_branches =
                  ISet.filter
                    (fun b ->
                      (not (uniform_trip_branch f b))
                      && List.for_all
                           (fun s -> ISet.mem s li.body)
                           (T.successors (T.block f b).term))
                    (ISet.inter div_branches li.body)
                in
                let common =
                  ISet.diff li.body (divergently_executed pdf interior_div_branches li.body)
                in
                let s, common_cost, serial_cost = score ~common ~serial in
                Some
                  {
                    in_func = name;
                    kind = Loop_merge;
                    target_block = loop_body_entry f li;
                    region_start;
                    scope = ISet.add region_start lo.body;
                    score = s;
                    common_cost;
                    serial_cost;
                  }))
          | Some _ | None -> None)
        all
    in
    (* Iteration Delay: divergent branch fully inside a loop with an
       expensive taken-region. *)
    let headers = List.map (fun (l : Analysis.Loops.loop) -> l.header) all in
    let iteration_delay =
      List.concat_map
        (fun (l : Analysis.Loops.loop) ->
          ISet.fold
            (fun c acc ->
              let directly_in_l =
                match Analysis.Loops.innermost_containing loops c with
                | Some il -> il.Analysis.Loops.header = l.header
                | None -> false
              in
              if not (ISet.mem c div_branches && directly_in_l) then acc
              else
                match (T.block f c).term with
                | T.Br { if_true; if_false; _ }
                  when ISet.mem if_true l.body && ISet.mem if_false l.body ->
                  let consider x acc =
                    if List.mem x headers then acc (* loop-merge shape instead *)
                    else if x = c then acc
                    else if Analysis.Dom.Post.postdominates pdom x c then
                      (* x is where PDOM sync already reconverges; predicting
                         it adds nothing *)
                      acc
                    else
                      let common = dominated_within dom l x in
                      if ISet.is_empty common then acc
                      else
                        match region_start_of_loop dom l with
                        | None -> acc
                        | Some region_start ->
                          let serial = ISet.diff l.body common in
                          let s, common_cost, serial_cost = score ~common ~serial in
                          {
                            in_func = name;
                            kind = Iteration_delay;
                            target_block = x;
                            region_start;
                            scope = ISet.add region_start l.body;
                            score = s;
                            common_cost;
                            serial_cost;
                          }
                          :: acc
                  in
                  consider if_true (consider if_false acc)
                | T.Br _ | T.Jump _ | T.Ret _ | T.Exit -> acc)
            l.body []
        )
        all
    in
    loop_merge @ iteration_delay
  end

let detect ?profile params (p : T.program) =
  let names = T.func_names p in
  let all = List.concat_map (detect_in_func ?profile params p (Analysis.Divergence.run p)) names in
  List.filter (fun c -> c.score >= params.min_gain_ratio) all
  |> List.sort (fun a b -> compare b.score a.score)

let install (p : T.program) candidates =
  (* Greedy best-first selection of non-overlapping predictions: nested or
     intersecting candidate regions are the "conflicting locations" case
     §4.5 warns about — installing both would create two same-priority
     user barriers that deadlock against each other. [detect] returns
     candidates best first. *)
  let counter = ref 0 in
  let accepted : (string, ISet.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let taken = Option.value (Hashtbl.find_opt accepted c.in_func) ~default:ISet.empty in
      if ISet.disjoint taken c.scope then begin
        Hashtbl.replace accepted c.in_func (ISet.union taken c.scope);
        let f = Hashtbl.find p.funcs c.in_func in
        let label = Printf.sprintf "auto_%d" !counter in
        incr counter;
        Ir.Builder.add_label f label c.target_block;
        Ir.Builder.add_hint f
          { T.target = T.Label_target label; region_start = c.region_start; threshold = None }
      end)
    candidates
