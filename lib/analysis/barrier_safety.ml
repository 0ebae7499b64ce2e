(* srlint: static barrier-safety checker. See the .mli for the abstract
   domain and the deadlock argument; DESIGN.md documents the transfer
   functions.

   Soundness hinges on one dynamic fact (lib/simt/barrier_unit.ml): a
   barrier fires only when every current participant is blocked on it
   (or the soft threshold is met). In a stalled machine state every
   barrier that still has blocked lanes therefore has some participant
   blocked on a *different* barrier, and with finitely many slots that
   "waits-for" relation must contain a cycle. Contrapositive: if the
   static over-approximation of waits-for is acyclic, no schedule can
   deadlock on barriers. *)

open Sets
module T = Ir.Types

type category =
  | Bypassable_wait
  | Double_arrive
  | Unallocated_slot
  | Unseparated_overlap
  | Undominated_wait

let category_name = function
  | Bypassable_wait -> "bypassable-wait"
  | Double_arrive -> "double-arrive"
  | Unallocated_slot -> "unallocated-slot"
  | Unseparated_overlap -> "unseparated-overlap"
  | Undominated_wait -> "undominated-wait"

let category_rank = function
  | Bypassable_wait -> 0
  | Unseparated_overlap -> 1
  | Double_arrive -> 2
  | Unallocated_slot -> 3
  | Undominated_wait -> 4

type site = { in_func : string; block : int; index : int; src_line : int option }

type finding = {
  category : category;
  slot : T.barrier;
  site : site;
  message : string;
  fix : string;
  related : T.barrier list;
}

type speculative = { sfunc : string; slot : T.barrier; join_block : int }

(* ------------------------------------------------------------------ *)
(* May-held relational domain                                          *)
(* ------------------------------------------------------------------ *)

module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let ordered a b = if a <= b then (a, b) else (b, a)

(* [singles] — slots some thread may hold here; [pairs] — unordered slot
   pairs a single thread may hold simultaneously along some path. Pairs
   are what survive CFG merges exactly: union over paths is the precise
   answer for an existential path property. *)
module Held = struct
  type t = { singles : Int_set.t; pairs : Pair_set.t }

  let bottom = { singles = Int_set.empty; pairs = Pair_set.empty }

  let equal a b = Int_set.equal a.singles b.singles && Pair_set.equal a.pairs b.pairs

  let join a b =
    { singles = Int_set.union a.singles b.singles; pairs = Pair_set.union a.pairs b.pairs }
end

module Held_solver = Dataflow.Make (Held)

let held_add b (s : Held.t) =
  let pairs =
    Int_set.fold
      (fun c acc -> if c = b then acc else Pair_set.add (ordered b c) acc)
      s.singles s.pairs
  in
  { Held.singles = Int_set.add b s.singles; pairs }

let held_drop b (s : Held.t) =
  {
    Held.singles = Int_set.remove b s.singles;
    pairs = Pair_set.filter (fun (x, y) -> x <> b && y <> b) s.pairs;
  }

(* Interprocedural summaries. [entry_waits f] — slots waited in [f]'s
   entry block (a call is the wait event for them, §4.4). [may_block f]
   — slots a thread may block on somewhere inside [f] or its callees,
   beyond the entry waits. [escapes f] — slots possibly still held when
   [f] returns. *)
type summaries = {
  entry_waits : string -> Int_set.t;
  may_block : string -> Int_set.t;
  escapes : string -> Int_set.t;
}

let held_step sums (s : Held.t) inst =
  match inst with
  | T.Join b | T.Rejoin b -> held_add b s
  | T.Wait b | T.Wait_threshold (b, _) | T.Cancel b -> held_drop b s
  | T.Call { callee; _ } ->
    let s = Int_set.fold held_drop (sums.entry_waits callee) s in
    Int_set.fold held_add (sums.escapes callee) s
  | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _ | T.Lane _ | T.Nthreads _
  | T.Rand _ | T.Randint _ -> s

(* ------------------------------------------------------------------ *)
(* Must-held domain (double-arrive check)                              *)
(* ------------------------------------------------------------------ *)

(* Intersection lattice: [Top] is "no path reached here yet", so it is
   the solver's bottom and the identity of the (intersection) join. *)
module Must = struct
  type t = Top | Known of Int_set.t

  let bottom = Top

  let equal a b =
    match (a, b) with
    | Top, Top -> true
    | Known x, Known y -> Int_set.equal x y
    | Top, Known _ | Known _, Top -> false

  let join a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Known x, Known y -> Known (Int_set.inter x y)
end

module Must_solver = Dataflow.Make (Must)

let must_step sums m inst =
  match m with
  | Must.Top -> Must.Top
  | Must.Known s ->
    Must.Known
      (match inst with
      | T.Join b | T.Rejoin b -> Int_set.add b s
      | T.Wait b | T.Wait_threshold (b, _) | T.Cancel b -> Int_set.remove b s
      | T.Call { callee; _ } -> Int_set.diff s (sums.entry_waits callee)
      | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _ | T.Lane _ | T.Nthreads _
      | T.Rand _ | T.Randint _ -> s)

(* ------------------------------------------------------------------ *)
(* Predicate-aware reachability                                        *)
(* ------------------------------------------------------------------ *)

(* Block-local constant propagation over the integer registers feeding
   conditional branches: a [Br] whose condition is an integer
   immediate, or a register the block itself pins to a constant, has
   exactly one live successor. Pruning the dead edge keeps barriers on
   statically untakeable paths out of the waits-for relation — passes
   leave such guards behind (a specialized trip count of zero, a
   folded feature flag), and a join/wait on the dead side must not
   manufacture a cycle against the live code. The environment resets
   at block entry, so only facts the block itself establishes are
   used: an absent register means "unknown", never a guess, which
   keeps the pruning an under-approximation of deadness (the
   soundness direction {!Cfg.of_func} requires). *)
let fold_int_bin op x y =
  let bool_ b = Some (if b then 1 else 0) in
  match (op : T.binop) with
  | T.Add -> Some (x + y)
  | T.Sub -> Some (x - y)
  | T.Mul -> Some (x * y)
  | T.Div -> if y = 0 then None else Some (x / y)
  | T.Rem -> if y = 0 then None else Some (x mod y)
  | T.Min -> Some (min x y)
  | T.Max -> Some (max x y)
  | T.Eq -> bool_ (x = y)
  | T.Ne -> bool_ (x <> y)
  | T.Lt -> bool_ (x < y)
  | T.Le -> bool_ (x <= y)
  | T.Gt -> bool_ (x > y)
  | T.Ge -> bool_ (x >= y)
  | T.Fadd | T.Fsub | T.Fmul | T.Fdiv | T.Fmin | T.Fmax | T.Feq | T.Fne | T.Flt | T.Fle
  | T.Fgt | T.Fge -> None

let fold_int_un op x =
  match (op : T.unop) with
  | T.Neg -> Some (-x)
  | T.Not -> Some (if x = 0 then 1 else 0)
  | T.Fneg | T.Itof | T.Ftoi | T.Sqrt | T.Exp | T.Log | T.Sin | T.Cos | T.Fabs -> None

let branch_pruner (f : T.func) =
  let dead : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  T.iter_blocks f (fun b ->
      match b.T.term with
      | T.Br { cond; if_true; if_false } when if_true <> if_false ->
        let env : (int, int) Hashtbl.t = Hashtbl.create 8 in
        let operand = function
          | T.Imm (T.I k) -> Some k
          | T.Imm (T.F _) -> None
          | T.Reg r -> Hashtbl.find_opt env r
        in
        let set r = function Some v -> Hashtbl.replace env r v | None -> Hashtbl.remove env r in
        List.iter
          (fun inst ->
            match inst with
            | T.Mov (r, op) -> set r (operand op)
            | T.Bin (op, r, a, b) ->
              set r
                (match (operand a, operand b) with
                | Some x, Some y -> fold_int_bin op x y
                | _ -> None)
            | T.Un (op, r, a) ->
              set r (match operand a with Some x -> fold_int_un op x | None -> None)
            | T.Load (r, _) | T.Tid r | T.Lane r | T.Nthreads r | T.Rand r | T.Randint (r, _) ->
              set r None
            | T.Call { ret = Some r; _ } -> set r None
            | T.Call { ret = None; _ } | T.Store _ | T.Join _ | T.Rejoin _ | T.Wait _
            | T.Wait_threshold _ | T.Cancel _ -> ())
          b.T.insts;
        (match operand cond with
        | Some k -> Hashtbl.replace dead (b.T.id, (if k <> 0 then if_false else if_true)) ()
        | None -> ())
      | T.Br _ | T.Jump _ | T.Ret _ | T.Exit -> ());
  fun src dst -> not (Hashtbl.mem dead (src, dst))

(* ------------------------------------------------------------------ *)
(* Summary fixpoint                                                    *)
(* ------------------------------------------------------------------ *)

(* Solves [escapes]/[may_block] and the per-function held analyses that
   depend on them, over each function's pruned CFG [cfg_of n]. Sweeps
   run bottom-up, so a callee outside every call cycle is final before
   its callers read it, and one sweep is exact without recursion. Only
   a function in a call cycle can have a caller that read it earlier in
   the sweep, so the sweep repeats while such a summary changes; the
   last sweep then read nothing stale, and its held results are the
   ones against the stable summaries. *)
let compute_summaries (p : T.program) ~cfg_of =
  let names = T.func_names p in
  let cg = Callgraph.build p in
  let order = Callgraph.bottom_up cg in
  let recursive = List.filter (Callgraph.is_recursive cg) order in
  let entry_waits = Barrier_analysis.entry_waits p in
  let mb_tbl : (string, Int_set.t) Hashtbl.t = Hashtbl.create 8 in
  let esc_tbl : (string, Int_set.t) Hashtbl.t = Hashtbl.create 8 in
  let get tbl n = Option.value (Hashtbl.find_opt tbl n) ~default:Int_set.empty in
  let sums =
    { entry_waits; may_block = (fun n -> get mb_tbl n); escapes = (fun n -> get esc_tbl n) }
  in
  let held_results : (string, Held_solver.result) Hashtbl.t = Hashtbl.create 8 in
  (* Local waited slots never change across iterations; precompute. *)
  let local_waits =
    List.map
      (fun n ->
        let f = Hashtbl.find p.T.funcs n in
        let acc = ref Int_set.empty in
        T.iter_blocks f (fun b ->
            List.iter
              (fun i ->
                match i with
                | T.Wait x | T.Wait_threshold (x, _) -> acc := Int_set.add x !acc
                | _ -> ())
              b.insts);
        (n, !acc))
      names
  in
  let cycle_changed = ref true in
  while !cycle_changed do
    cycle_changed := false;
    List.iter
      (fun n ->
        let f = Hashtbl.find p.T.funcs n in
        let g = cfg_of n in
        let res =
          Held_solver.solve g Dataflow.Forward ~boundary:Held.bottom ~transfer:(fun id st ->
              List.fold_left (held_step sums) st (T.block f id).insts)
        in
        Hashtbl.replace held_results n res;
        let esc =
          List.fold_left
            (fun acc id ->
              match (T.block f id).term with
              | T.Ret _ -> Int_set.union acc (Held_solver.after res id).Held.singles
              | T.Jump _ | T.Br _ | T.Exit -> acc)
            Int_set.empty (Cfg.nodes g)
        in
        let mb =
          List.fold_left
            (fun acc callee ->
              Int_set.union acc (Int_set.union (entry_waits callee) (get mb_tbl callee)))
            (List.assoc n local_waits) (Callgraph.callees cg n)
        in
        if not (Int_set.equal esc (get esc_tbl n) && Int_set.equal mb (get mb_tbl n)) then begin
          Hashtbl.replace esc_tbl n esc;
          Hashtbl.replace mb_tbl n mb;
          if List.mem n recursive then cycle_changed := true
        end)
      order
  done;
  (sums, fun n -> Hashtbl.find held_results n)

(* ------------------------------------------------------------------ *)
(* SCCs of the waits-for graph (Tarjan, iterative-enough for our sizes) *)
(* ------------------------------------------------------------------ *)

let sccs nodes succs =
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  !out

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

let pp_int_list ppf slots =
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map (Printf.sprintf "b%d") slots))

let check ?(speculative = []) (p : T.program) =
  let findings = ref [] in
  let add ?(related = []) category slot site message fix =
    findings := { category; slot; site; message; fix; related } :: !findings
  in
  let names = T.func_names p in
  let cfgs = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let f = Hashtbl.find p.T.funcs n in
      Hashtbl.replace cfgs n (Cfg.of_func ~live_edge:(branch_pruner f) f))
    names;
  let cfg_of n = Hashtbl.find cfgs n in
  let sums, held_of = compute_summaries p ~cfg_of in
  (* Directed waits-for edges: (holder, waited) -> first witnessing site. *)
  let edges : (int * int, site) Hashtbl.t = Hashtbl.create 32 in
  let add_edge src dst site =
    if src <> dst && not (Hashtbl.mem edges (src, dst)) then Hashtbl.replace edges (src, dst) site
  in
  let arrive_slots = ref Int_set.empty in
  (* slot -> first wait/cancel site, for the orphan-slot check *)
  let release_sites : (int, site) Hashtbl.t = Hashtbl.create 16 in
  let note_release slot site =
    if not (Hashtbl.mem release_sites slot) then Hashtbl.replace release_sites slot site
  in
  List.iter
    (fun n ->
      let f = Hashtbl.find p.T.funcs n in
      let g = cfg_of n in
      let held_res = held_of n in
      let must_res =
        Must_solver.solve g Dataflow.Forward ~boundary:(Must.Known Int_set.empty)
          ~transfer:(fun id st -> List.fold_left (must_step sums) st (T.block f id).insts)
      in
      T.iter_blocks f (fun b ->
          let reachable = Cfg.mem g b.id in
          let held = ref (Held_solver.before held_res b.id) in
          let must = ref (Must_solver.before must_res b.id) in
          List.iteri
            (fun index inst ->
              let site = { in_func = n; block = b.id; index; src_line = b.src_line } in
              (* Slot-range check applies even to unreachable blocks. *)
              (match T.barrier_of inst with
              | Some slot when slot < 0 || slot >= p.next_barrier ->
                add Unallocated_slot slot site
                  (Printf.sprintf "slot b%d is outside the allocated range [0, %d)" slot
                     p.next_barrier)
                  "allocate the slot with Builder.fresh_barrier before referencing it"
              | Some _ | None -> ());
              (match inst with
              | T.Join slot ->
                arrive_slots := Int_set.add slot !arrive_slots;
                (match !must with
                | Must.Known s when reachable && Int_set.mem slot s ->
                  add Double_arrive slot site
                    (Printf.sprintf
                       "arrive-after-arrive: every path to this join already holds b%d" slot)
                    "remove the redundant join, or use rejoin.barrier after the wait"
                | Must.Known _ | Must.Top -> ())
              | T.Rejoin slot -> arrive_slots := Int_set.add slot !arrive_slots
              | T.Wait slot | T.Wait_threshold (slot, _) ->
                note_release slot site;
                if reachable && Int_set.mem slot (!held).Held.singles then
                  Pair_set.iter
                    (fun (x, y) ->
                      if x = slot then add_edge y slot site
                      else if y = slot then add_edge x slot site)
                    (!held).Held.pairs
              | T.Cancel slot -> note_release slot site
              | T.Call { callee; _ } when reachable ->
                (* The call is the wait event for the callee's entry
                   waits (pair-precise); deeper blocking points see the
                   caller's held slots minus those entry waits. *)
                let ew = sums.entry_waits callee in
                Int_set.iter
                  (fun w ->
                    if Int_set.mem w (!held).Held.singles then
                      Pair_set.iter
                        (fun (x, y) ->
                          if x = w then add_edge y w site
                          else if y = w then add_edge x w site)
                        (!held).Held.pairs)
                  ew;
                let deeper = Int_set.diff (sums.may_block callee) ew in
                let srcs = Int_set.diff (!held).Held.singles ew in
                Int_set.iter
                  (fun m -> Int_set.iter (fun c -> if c <> m then add_edge c m site) srcs)
                  deeper
              | T.Call _ | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _ | T.Tid _
              | T.Lane _ | T.Nthreads _ | T.Rand _ | T.Randint _ -> ());
              held := held_step sums !held inst;
              must := must_step sums !must inst)
            b.insts))
    names;
  (* Rule 3b: wait/cancel on a slot with no arrive site anywhere. *)
  Hashtbl.fold (fun slot site acc -> (slot, site) :: acc) release_sites []
  |> List.sort compare
  |> List.iter (fun (slot, site) ->
         if slot >= 0 && slot < p.next_barrier && not (Int_set.mem slot !arrive_slots) then
           add Unallocated_slot slot site
             (Printf.sprintf "wait/cancel on b%d, but no join/rejoin arrives on it anywhere" slot)
             "insert join.barrier on every participating path, or delete the orphan primitive");
  (* Rule 4: partially-overlapping live ranges with mutual blocking. A
     conflicting pair is reported only when its slots have waits-for
     edges both ways, so without such a pair the analysis is skipped. *)
  let mutual =
    Hashtbl.fold (fun (a, b) _ acc -> acc || (a <> b && Hashtbl.mem edges (b, a))) edges false
  in
  if mutual then
    List.iter
      (fun n ->
        let f = Hashtbl.find p.T.funcs n in
        let ba = Barrier_analysis.run ~call_waits:sums.entry_waits f in
        List.iter
          (fun (x, y) ->
            match (Hashtbl.find_opt edges (x, y), Hashtbl.find_opt edges (y, x)) with
            | Some site, Some _ ->
              add ~related:[ y ] Unseparated_overlap x site
                (Printf.sprintf
                   "slots b%d and b%d overlap partially and can each block a holder of the \
                    other; Deconflict should have separated them"
                   x y)
                "re-run deconfliction on this pair, or cancel the held slot before the wait"
            | _ -> ())
          (Barrier_analysis.conflicts ba))
      names;
  (* Rule 1: cycles in the waits-for relation. *)
  let edge_nodes =
    Hashtbl.fold (fun (a, b) _ acc -> Int_set.add a (Int_set.add b acc)) edges Int_set.empty
  in
  let succs v =
    Hashtbl.fold (fun (a, b) _ acc -> if a = v then b :: acc else acc) edges []
    |> List.sort compare
  in
  List.iter
    (fun scc ->
      match List.sort compare scc with
      | [] | [ _ ] -> ()
      | rep :: _ as cycle ->
        (* Witness site: the lexically first edge inside the cycle. *)
        let in_cycle x = List.mem x cycle in
        let site =
          Hashtbl.fold
            (fun (a, b) s acc ->
              if in_cycle a && in_cycle b then
                match acc with
                | Some (k, _) when k <= (a, b) -> acc
                | _ -> Some ((a, b), s)
              else acc)
            edges None
        in
        let site = match site with Some (_, s) -> s | None -> assert false in
        add ~related:cycle Bypassable_wait rep site
          (Format.asprintf
             "wait can be bypassed: slots %a form a waits-for cycle (each may block a holder \
              of the next), so no schedule can fire them"
             pp_int_list cycle)
          "break the cycle: cancel or deconflict one of the slots before its conflicting wait")
    (sccs (Int_set.elements edge_nodes) succs);
  (* Rule 5: speculative waits must be dominated by their BSSY. *)
  List.iter
    (fun sp ->
      match Hashtbl.find_opt p.T.funcs sp.sfunc with
      | None -> ()
      | Some f ->
        let g = cfg_of sp.sfunc in
        let jb = if Cfg.mem g sp.join_block then Some (T.block f sp.join_block) else None in
        let joins_here bl =
          List.exists
            (fun i -> match i with T.Join x | T.Rejoin x -> x = sp.slot | _ -> false)
            bl.T.insts
        in
        (match jb with
        | Some bl when joins_here bl ->
          let dom = Dom.compute g in
          T.iter_blocks f (fun b ->
              if Cfg.mem g b.id then
                List.iteri
                  (fun index inst ->
                    let waits_slot =
                      match inst with
                      | T.Wait x | T.Wait_threshold (x, _) -> x = sp.slot
                      | T.Call { callee; _ } -> Int_set.mem sp.slot (sums.entry_waits callee)
                      | _ -> false
                    in
                    if waits_slot && not (Dom.dominates dom sp.join_block b.id) then
                      add Undominated_wait sp.slot
                        { in_func = sp.sfunc; block = b.id; index; src_line = b.src_line }
                        (Printf.sprintf
                           "speculative wait on b%d at bb%d is not dominated by its join \
                            block bb%d: some participant can reach the wait region without \
                            arriving"
                           sp.slot b.id sp.join_block)
                        "move the predict hint so the join dominates the wait, or drop the \
                         hint")
                  b.insts)
        | Some _ | None -> (* slot was deconflicted/cleaned away: nothing to prove *) ()))
    (List.sort compare speculative);
  List.sort_uniq
    (fun a b ->
      compare
        (a.site.in_func, a.site.block, a.site.index, category_rank a.category, a.slot)
        (b.site.in_func, b.site.block, b.site.index, category_rank b.category, b.slot))
    !findings

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_line ppf = function
  | Some l -> Format.fprintf ppf "%d" l
  | None -> Format.fprintf ppf "?"

(* Stable edit-class names shared with Analysis.Barrier_repair: the
   repair pass enumerates candidates for a finding starting from the
   hinted class, and srcc --fix-dry-run reports edits under the same
   vocabulary, so the hint is a machine-checkable promise. *)
let hint f =
  match f.category with
  | Bypassable_wait -> "insert-cancel"
  | Unseparated_overlap -> "split-slot"
  | Double_arrive -> "split-slot"
  | Unallocated_slot -> "remap-slot"
  | Undominated_wait -> "hoist-wait"

let pp_finding ppf f =
  Format.fprintf ppf "srlint [%s] %s/bb%d (line %a) slot b%d: %s; fix: %s"
    (category_name f.category) f.site.in_func f.site.block pp_line f.site.src_line f.slot
    f.message f.fix

let pp_machine ppf f =
  Format.fprintf ppf
    "srlint: category=%s func=%s block=bb%d line=%a slot=b%d msg=%s fix=%s hint=%s"
    (category_name f.category) f.site.in_func f.site.block pp_line f.site.src_line f.slot
    f.message f.fix (hint f)

let render fs = String.concat "\n" (List.map (Format.asprintf "%a" pp_machine) fs)
