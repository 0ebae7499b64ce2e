(* srrace: static data-race checker over barrier intervals. See the .mli
   for the abstract domain and the phase model; DESIGN.md §10 documents
   the transfer functions and the soundness assumptions.

   Structure mirrors Barrier_safety: a per-function abstract
   interpretation (here of integer register values, lane-affine in the
   thread id), a phase partition derived from the barrier placement (the
   may-happen-in-parallel relation), interprocedural summaries over
   Callgraph in bottom-up order with §4.4 call-as-wait falling out of
   the callee's own entry analysis, and a final pairwise scan that
   reports conflicts as machine-renderable findings. *)

open Sets
module T = Ir.Types

type category = Write_write | Read_write | Race_introduced

let category_name = function
  | Write_write -> "write-write"
  | Read_write -> "read-write"
  | Race_introduced -> "race-introduced"

let category_rank = function Race_introduced -> 0 | Write_write -> 1 | Read_write -> 2

type site = { in_func : string; block : int; index : int; src_line : int option }

type finding = {
  category : category;
  global : string;
  site : site;
  other : site;
  message : string;
  fix : string;
}

(* ------------------------------------------------------------------ *)
(* Index abstraction                                                   *)
(* ------------------------------------------------------------------ *)

(* Abstract integer value of a register (and, at an access, of the cell
   index relative to its global's base):
   - [Aff (c0, c1)] — exactly [c0 + c1*tid] in every thread;
   - [Rng (lo, hi)] — some value in [lo, hi], possibly different per
     thread and not known to depend on [tid] injectively;
   - [Any] — no information (the sound top).
   Bounds are saturated at [inf] so the arithmetic can never wrap. *)
type idx = Aff of int * int | Rng of int * int | Any

let inf = max_int / 4
let clamp v = if v > inf then inf else if v < -inf then -inf else v
let sat_add a b = clamp (a + b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if abs a > inf / abs b then if a > 0 = (b > 0) then inf else -inf
  else clamp (a * b)

let rng_of = function
  | Aff (c, 0) -> Some (c, c)
  | Rng (l, h) -> Some (l, h)
  | Aff _ | Any -> None

let as_const v = match rng_of v with Some (l, h) when l = h -> Some l | _ -> None
let nonneg = function Aff (c0, c1) -> c0 >= 0 && c1 >= 0 | Rng (l, _) -> l >= 0 | Any -> false
let fold_const v = if v > inf || v < -inf then Any else Aff (v, 0)

let equal_idx (a : idx) (b : idx) = a = b

let join_idx a b =
  if equal_idx a b then a
  else
    match (a, b) with
    | Any, _ | _, Any -> Any
    | _ -> (
      match (rng_of a, rng_of b) with
      | Some (l1, h1), Some (l2, h2) -> Rng (min l1 l2, max h1 h2)
      | _ -> Any)

(* Classic interval widening: an unstable bound jumps straight to its
   saturation limit, so chains through loop-carried arithmetic are
   finite. *)
let widen_idx old_v new_v =
  if equal_idx old_v new_v then old_v
  else
    match (rng_of old_v, rng_of new_v) with
    | Some (l1, h1), Some (l2, h2) ->
      Rng ((if l2 < l1 then -inf else l1), (if h2 > h1 then inf else h1))
    | _ -> Any

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

let abstract_bin op a b =
  let const2 f =
    match (as_const a, as_const b) with
    | Some ca, Some cb -> f ca cb
    | _ -> None
  in
  let rngs2 f =
    match (rng_of a, rng_of b) with Some r1, Some r2 -> Some (f r1 r2) | _ -> None
  in
  let default cases = match cases with Some v -> v | None -> Any in
  match op with
  | T.Add -> (
    match (a, b) with
    | Aff (a0, a1), Aff (b0, b1) -> Aff (sat_add a0 b0, sat_add a1 b1)
    | _ -> default (rngs2 (fun (l1, h1) (l2, h2) -> Rng (sat_add l1 l2, sat_add h1 h2))))
  | T.Sub -> (
    match (a, b) with
    | Aff (a0, a1), Aff (b0, b1) -> Aff (sat_add a0 (-b0), sat_add a1 (-b1))
    | _ -> default (rngs2 (fun (l1, h1) (l2, h2) -> Rng (sat_add l1 (-h2), sat_add h1 (-l2)))))
  | T.Mul -> (
    match (a, b, as_const a, as_const b) with
    | Aff (a0, a1), _, _, Some k -> Aff (sat_mul a0 k, sat_mul a1 k)
    | _, Aff (b0, b1), Some k, _ -> Aff (sat_mul b0 k, sat_mul b1 k)
    | _ ->
      default
        (rngs2 (fun (l1, h1) (l2, h2) ->
             let c = [ sat_mul l1 l2; sat_mul l1 h2; sat_mul h1 l2; sat_mul h1 h2 ] in
             Rng (List.fold_left min inf c, List.fold_left max (-inf) c))))
  | T.Rem -> (
    match const2 (fun ca cb -> if cb = 0 then None else Some (fold_const (ca mod cb))) with
    | Some v -> v
    | None -> (
      match as_const b with
      | Some k when k <> 0 -> (
        let m = abs k - 1 in
        match rng_of a with
        | Some (l, h) when l >= 0 && h <= m -> a
        | _ -> if nonneg a then Rng (0, m) else Rng (-m, m))
      | _ -> (
        match rng_of b with
        | Some (l, h) when l >= 1 ->
          let m = clamp (h - 1) in
          if nonneg a then Rng (0, m) else Rng (-m, m)
        | _ -> Any)))
  | T.Div -> (
    match const2 (fun ca cb -> if cb = 0 then None else Some (fold_const (ca / cb))) with
    | Some v -> v
    | None -> (
      match (rng_of a, as_const b) with
      | Some (l, h), Some k when k > 0 -> Rng (l / k, h / k)
      | _ -> Any))
  | T.Min -> default (rngs2 (fun (l1, h1) (l2, h2) -> Rng (min l1 l2, min h1 h2)))
  | T.Max -> default (rngs2 (fun (l1, h1) (l2, h2) -> Rng (max l1 l2, max h1 h2)))
  | T.Eq | T.Ne | T.Lt | T.Le | T.Gt | T.Ge | T.Feq | T.Fne | T.Flt | T.Fle | T.Fgt | T.Fge ->
    Rng (0, 1)
  | T.Fadd | T.Fsub | T.Fmul | T.Fdiv | T.Fmin | T.Fmax -> Any

let abstract_un op a =
  match op with
  | T.Neg -> (
    match a with
    | Aff (c0, c1) -> Aff (sat_add 0 (-c0), sat_add 0 (-c1))
    | Rng (l, h) -> Rng (sat_add 0 (-h), sat_add 0 (-l))
    | Any -> Any)
  | T.Not -> Rng (0, 1)
  | T.Fneg | T.Itof | T.Ftoi | T.Sqrt | T.Exp | T.Log | T.Sin | T.Cos | T.Fabs -> Any

(* The address slice: every register a load or store address depends on,
   transitively through the operands of all of the register's
   definitions. Findings read abstract values only at addresses, and a
   register outside the slice never flows into one inside it, so the
   analysis tracks the slice alone. [slot.(r)] is [r]'s index in a
   slice-sized environment, or -1 outside the slice. *)
let address_slice (f : T.func) =
  let n_regs = max f.T.next_reg 1 in
  let deps = Array.make n_regs [] in
  let roots = ref [] in
  T.iter_blocks f (fun b ->
      List.iter
        (fun inst ->
          (match inst with
          | T.Load (_, a) | T.Store (a, _) -> roots := T.operand_uses a @ !roots
          | T.Bin _ | T.Un _ | T.Mov _ | T.Tid _ | T.Lane _ | T.Nthreads _ | T.Rand _
          | T.Randint _ | T.Call _ | T.Join _ | T.Rejoin _ | T.Wait _ | T.Wait_threshold _
          | T.Cancel _ -> ());
          List.iter (fun d -> deps.(d) <- T.uses inst @ deps.(d)) (T.defs inst))
        b.insts);
  let slot = Array.make n_regs (-1) in
  let width = ref 0 in
  let rec add r =
    if slot.(r) < 0 then begin
      slot.(r) <- !width;
      incr width;
      List.iter add deps.(r)
    end
  in
  List.iter add !roots;
  (slot, !width)

let eval_env slot env = function
  | T.Reg r -> env.(slot.(r))
  | T.Imm (T.I k) -> fold_const k
  | T.Imm (T.F _) -> Any

let step_inst slot env inst =
  let tracked d = slot.(d) >= 0 in
  let eval = eval_env slot env in
  match inst with
  | T.Bin (op, d, x, y) when tracked d -> env.(slot.(d)) <- abstract_bin op (eval x) (eval y)
  | T.Un (op, d, x) when tracked d -> env.(slot.(d)) <- abstract_un op (eval x)
  | T.Mov (d, x) when tracked d -> env.(slot.(d)) <- eval x
  | (T.Load (d, _) | T.Rand d | T.Call { ret = Some d; _ }) when tracked d -> env.(slot.(d)) <- Any
  | T.Tid d when tracked d -> env.(slot.(d)) <- Aff (0, 1)
  | T.Lane d when tracked d -> env.(slot.(d)) <- Rng (0, inf)
  | T.Nthreads d when tracked d -> env.(slot.(d)) <- Rng (1, inf)
  | T.Randint (d, x) when tracked d ->
    env.(slot.(d)) <-
      (match as_const (eval x) with Some k when k > 0 -> Rng (0, k - 1) | _ -> Rng (0, inf))
  | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Rand _ | T.Call _ | T.Tid _ | T.Lane _
  | T.Nthreads _ | T.Randint _ | T.Store _ | T.Join _ | T.Rejoin _ | T.Wait _
  | T.Wait_threshold _ | T.Cancel _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-function register analysis (worklist with widening)             *)
(* ------------------------------------------------------------------ *)

(* The address slice's [slot] map, and its abstract values at every
   reachable block entry. *)
let analyze_regs (f : T.func) (g : Cfg.t) =
  let slot, width = address_slice f in
  let states : (int, idx array) Hashtbl.t = Hashtbl.create 16 in
  let visits : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace states (Cfg.entry g) (Array.make width Any);
  let work = Queue.create () in
  Queue.add (Cfg.entry g) work;
  while not (Queue.is_empty work) do
    let id = Queue.pop work in
    match Hashtbl.find_opt states id with
    | None -> ()
    | Some env_in ->
      let env = Array.copy env_in in
      List.iter (step_inst slot env) (T.block f id).insts;
      List.iter
        (fun s ->
          let v = Option.value (Hashtbl.find_opt visits s) ~default:0 in
          match Hashtbl.find_opt states s with
          | None ->
            Hashtbl.replace states s (Array.copy env);
            Hashtbl.replace visits s 1;
            Queue.add s work
          | Some old ->
            let joined =
              Array.mapi
                (fun r o ->
                  let j = join_idx o env.(r) in
                  if v > 3 then widen_idx o j else j)
                old
            in
            if not (Array.for_all2 equal_idx joined old) then begin
              Hashtbl.replace states s joined;
              Hashtbl.replace visits s (v + 1);
              Queue.add s work
            end)
        (Cfg.succs g id)
  done;
  (slot, states)

(* ------------------------------------------------------------------ *)
(* Accesses, phase roots and interprocedural summaries                 *)
(* ------------------------------------------------------------------ *)

type access_kind = Read | Write

(* One abstract memory access: which global region (by the lowering
   invariant, [None] when the address abstraction cannot anchor it),
   the cell index relative to the region base, and the set of phase
   roots — program points (kernel entry or full-wait sites) from which
   the access is reachable without crossing another full wait. Two
   accesses may happen in parallel exactly when their root sets
   intersect. *)
type access = {
  akind : access_kind;
  region : string option;
  aidx : idx;
  asite : site;
  aroots : Int_set.t;
}

(* The universal root: used for code under recursion, where the phase
   partition is not tracked. It intersects everything. *)
let top_root = -1

type summary = { s_fentry : int; s_exit_roots : Int_set.t; s_accesses : access list }

module Roots = struct
  type t = Int_set.t

  let bottom = Int_set.empty
  let equal = Int_set.equal
  let join = Int_set.union
end

module Roots_solver = Dataflow.Make (Roots)

let sorted_globals (p : T.program) =
  Hashtbl.fold (fun name (base, size) acc -> (name, base, size) :: acc) p.globals []
  |> List.sort compare

(* Anchor the abstract address at its smallest realizable cell and take
   the global containing it. Sound under the in-bounds assumption: an
   executed access through [g[e]] stays inside [g] (out-of-bounds
   indexing is outside the analysed contract; the generator and the
   examples index through bounded expressions). *)
let resolve_region globals aval =
  let containing c =
    List.find_opt (fun (_, base, size) -> base <= c && c < base + size) globals
  in
  match aval with
  | Aff (c0, c1) -> (
    match containing c0 with
    | Some (name, base, _) -> Some (name, Aff (c0 - base, c1))
    | None -> None)
  | Rng (l, h) -> (
    match containing l with
    | Some (name, base, size) -> Some (name, Rng (l - base, min (h - base) (size - 1)))
    | None -> None)
  | Any -> None

(* ------------------------------------------------------------------ *)
(* Conflict tests                                                      *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Can two *different* threads hit the same cell, one through [a], the
   other through [b]? tid is over-approximated as unbounded. *)
let conflicts_cross a b =
  match (a, b) with
  | Any, _ | _, Any -> true
  | Aff (a0, a1), Aff (b0, b1) ->
    if a1 = b1 then
      if a1 = 0 then a0 = b0
      else a0 <> b0 && (a0 - b0) mod a1 = 0 (* same injective form only collides shifted *)
    else
      let g = gcd a1 b1 in
      if g = 0 then a0 = b0 else (b0 - a0) mod g = 0
  | Aff (a0, a1), Rng (l, h) | Rng (l, h), Aff (a0, a1) ->
    if a1 = 0 then l <= a0 && a0 <= h
    else
      let m = abs a1 in
      h - l + 1 >= m
      ||
      let r = ((a0 mod m) + m) mod m in
      let first = l + ((((r - l) mod m) + m) mod m) in
      first <= h
  | Rng (l1, h1), Rng (l2, h2) -> max l1 l2 <= min h1 h2

(* Can two different threads executing this one access site hit the
   same cell? *)
let conflicts_self = function
  | Aff (_, c1) -> c1 = 0
  | Rng _ | Any -> true

let mhp a b =
  Int_set.mem top_root a || Int_set.mem top_root b
  || not (Int_set.is_empty (Int_set.inter a b))

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

let pp_line ppf = function
  | Some l -> Format.fprintf ppf "%d" l
  | None -> Format.fprintf ppf "?"

let bound_str v = if v >= inf then "inf" else if v <= -inf then "-inf" else string_of_int v

let idx_str = function
  | Aff (c0, 0) -> string_of_int c0
  | Aff (0, 1) -> "tid"
  | Aff (c0, 1) -> Printf.sprintf "tid%+d" c0
  | Aff (0, c1) -> Printf.sprintf "%d*tid" c1
  | Aff (c0, c1) -> Printf.sprintf "%d*tid%+d" c1 c0
  | Rng (l, h) -> Printf.sprintf "[%s..%s]" (bound_str l) (bound_str h)
  | Any -> "?"

let site_str s =
  Printf.sprintf "%s/bb%d#%d (line %s)" s.in_func s.block s.index
    (match s.src_line with Some l -> string_of_int l | None -> "?")

let check ?kernels (p : T.program) =
  let kernel_names = match kernels with Some ks -> ks | None -> p.T.kernels in
  let cg = Callgraph.build p in
  let globals = sorted_globals p in
  let next_id = ref 0 in
  let fresh () =
    let i = !next_id in
    incr next_id;
    i
  in
  let fentry_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let fentry n =
    match Hashtbl.find_opt fentry_tbl n with
    | Some i -> i
    | None ->
      let i = fresh () in
      Hashtbl.replace fentry_tbl n i;
      i
  in
  let wait_tbl : (string * int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let wait_id n b i =
    match Hashtbl.find_opt wait_tbl (n, b, i) with
    | Some x -> x
    | None ->
      let x = fresh () in
      Hashtbl.replace wait_tbl (n, b, i) x;
      x
  in
  (* func -> Some summary, or None under recursion (swept conservatively) *)
  let summaries : (string, summary option) Hashtbl.t = Hashtbl.create 8 in
  (* the processed per-function result, kept even for recursive funcs *)
  let raw : (string, summary) Hashtbl.t = Hashtbl.create 8 in
  let roots_step fname roots ~block ~index inst =
    match inst with
    | T.Wait _ -> Int_set.singleton (wait_id fname block index)
    | T.Call { callee; _ } -> (
      match Hashtbl.find_opt summaries callee with
      | Some (Some s) ->
        let keep =
          if Int_set.mem s.s_fentry s.s_exit_roots then roots else Int_set.empty
        in
        Int_set.union keep (Int_set.remove s.s_fentry s.s_exit_roots)
      | Some None | None -> Int_set.add top_root roots)
    | T.Wait_threshold _ (* partial release: does not separate phases *)
    | T.Cancel _ | T.Join _ | T.Rejoin _ | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _
    | T.Tid _ | T.Lane _ | T.Nthreads _ | T.Rand _ | T.Randint _ -> roots
  in
  let process fname =
    let f = Hashtbl.find p.T.funcs fname in
    let g = Cfg.of_func f in
    let slot, envs = analyze_regs f g in
    let roots_res =
      Roots_solver.solve g Dataflow.Forward
        ~boundary:(Int_set.singleton (fentry fname))
        ~transfer:(fun id st ->
          snd
            (List.fold_left
               (fun (i, st) inst -> (i + 1, roots_step fname st ~block:id ~index:i inst))
               (0, st) (T.block f id).insts))
    in
    let accs = ref [] in
    T.iter_blocks f (fun b ->
        if Cfg.mem g b.id then begin
          let env = Array.copy (Hashtbl.find envs b.id) in
          let roots = ref (Roots_solver.before roots_res b.id) in
          List.iteri
            (fun index inst ->
              (match inst with
              | T.Load (_, a) | T.Store (a, _) ->
                let akind = match inst with T.Store _ -> Write | _ -> Read in
                let region, aidx =
                  match resolve_region globals (eval_env slot env a) with
                  | Some (name, i) -> (Some name, i)
                  | None -> (None, Any)
                in
                accs :=
                  {
                    akind;
                    region;
                    aidx;
                    asite = { in_func = fname; block = b.id; index; src_line = b.src_line };
                    aroots = !roots;
                  }
                  :: !accs
              | T.Call { callee; _ } -> (
                match Hashtbl.find_opt summaries callee with
                | Some (Some s) ->
                  List.iter
                    (fun acc ->
                      let aroots =
                        if Int_set.mem s.s_fentry acc.aroots then
                          Int_set.union (Int_set.remove s.s_fentry acc.aroots) !roots
                        else acc.aroots
                      in
                      accs := { acc with aroots } :: !accs)
                    s.s_accesses
                | Some None | None -> () (* recursive callee: swept separately *))
              | T.Bin _ | T.Un _ | T.Mov _ | T.Tid _ | T.Lane _ | T.Nthreads _ | T.Rand _
              | T.Randint _ | T.Join _ | T.Rejoin _ | T.Wait _ | T.Wait_threshold _
              | T.Cancel _ -> ());
              step_inst slot env inst;
              roots := roots_step fname !roots ~block:b.id ~index inst)
            b.insts
        end);
    let exit_roots =
      List.fold_left
        (fun acc id ->
          match (T.block f id).term with
          | T.Ret _ -> Int_set.union acc (Roots_solver.after roots_res id)
          | T.Jump _ | T.Br _ | T.Exit -> acc)
        Int_set.empty (Cfg.nodes g)
    in
    { s_fentry = fentry fname; s_exit_roots = exit_roots; s_accesses = List.rev !accs }
  in
  let names = Callgraph.bottom_up cg in
  List.iter
    (fun n ->
      let s = process n in
      Hashtbl.replace raw n s;
      Hashtbl.replace summaries n (if Callgraph.is_recursive cg n then None else Some s))
    names;
  (* Accesses visible to one kernel launch: the kernel's own summary
     (its fentry root IS the launch phase) plus, for every reachable
     function under recursion, its raw accesses under the universal
     root. *)
  let kernel_accesses kname =
    let reachable = ref [] in
    let seen = Hashtbl.create 8 in
    let rec visit n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        reachable := n :: !reachable;
        List.iter visit (Callgraph.callees cg n)
      end
    in
    visit kname;
    let base =
      match Hashtbl.find_opt summaries kname with
      | Some (Some s) -> s.s_accesses
      | _ -> []
    in
    let swept =
      List.concat_map
        (fun n ->
          match (Hashtbl.find_opt summaries n, Hashtbl.find_opt raw n) with
          | Some None, Some s ->
            List.map (fun a -> { a with aroots = Int_set.singleton top_root }) s.s_accesses
          | _ -> [])
        (List.sort compare !reachable)
    in
    base @ swept
  in
  let findings = ref [] in
  let add category global site other message fix =
    findings := { category; global; site; other; message; fix } :: !findings
  in
  let fix_of = function
    | Write_write ->
      "separate the writes with a full wait.barrier, or make the store index injective in tid"
    | Read_write -> "separate the read from the write with a full wait.barrier"
    | Race_introduced -> "restore the ordering: keep a full wait.barrier between the accesses"
  in
  let global_name a b =
    match (a.region, b.region) with Some g, _ | _, Some g -> g | None, None -> "?"
  in
  let scan accs =
    let arr = Array.of_list accs in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      let a = arr.(i) in
      (* Self conflict: many threads execute this one site. *)
      if
        a.akind = Write
        && (not (Int_set.is_empty a.aroots))
        && conflicts_self a.aidx
      then
        add Write_write
          (match a.region with Some g -> g | None -> "?")
          a.asite a.asite
          (Printf.sprintf
             "threads of the same barrier interval may write the same cell %s[%s] from this \
              one store"
             (match a.region with Some g -> g | None -> "?")
             (idx_str a.aidx))
          (fix_of Write_write);
      for j = i + 1 to n - 1 do
        let b = arr.(j) in
        let same_region =
          match (a.region, b.region) with
          | Some x, Some y -> String.equal x y
          | None, _ | _, None -> true
        in
        if
          (a.akind = Write || b.akind = Write)
          && same_region && mhp a.aroots b.aroots
          && conflicts_cross a.aidx b.aidx
        then begin
          let category = if a.akind = Write && b.akind = Write then Write_write else Read_write in
          (* For read-write findings, anchor at the write. *)
          let first, second =
            if category = Read_write && a.akind = Read then (b, a) else (a, b)
          in
          let verb x = match x.akind with Write -> "write" | Read -> "read" in
          add category (global_name a b) first.asite second.asite
            (Printf.sprintf
               "%s of %s[%s] here may race with %s of %s[%s] at %s: no full barrier \
                separates them"
               (verb first) (global_name a b) (idx_str first.aidx) (verb second)
               (global_name a b) (idx_str second.aidx) (site_str second.asite))
            (fix_of category)
        end
      done
    done
  in
  List.iter
    (fun k -> if Hashtbl.mem p.T.funcs k then scan (kernel_accesses k))
    (List.sort_uniq compare kernel_names);
  List.sort_uniq
    (fun a b ->
      compare
        ( (a.site.in_func, a.site.block, a.site.index),
          (a.other.in_func, a.other.block, a.other.index),
          category_rank a.category,
          a.global )
        ( (b.site.in_func, b.site.block, b.site.index),
          (b.other.in_func, b.other.block, b.other.index),
          category_rank b.category,
          b.global ))
    !findings

(* ------------------------------------------------------------------ *)
(* PDOM differential                                                   *)
(* ------------------------------------------------------------------ *)

(* Findings are matched across compilations by source provenance (block
   ids shift between placements, source lines do not). *)
let finding_key f =
  (f.category, f.global, f.site.in_func, f.site.src_line, f.other.in_func, f.other.src_line)

let diff ~baseline findings =
  let base = List.map finding_key baseline in
  List.map
    (fun f ->
      if List.mem (finding_key f) base then f
      else
        {
          f with
          category = Race_introduced;
          message =
            f.message
            ^ "; the PDOM placement orders these accesses — the speculative placement broke it";
          fix = "restore the ordering: keep a full wait.barrier between the accesses";
        })
    findings

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Stable edit-class names, same contract as Barrier_safety.hint: a
   machine-checkable promise about what kind of edit addresses the
   finding. *)
let hint f =
  match f.category with
  | Write_write | Read_write -> "insert-wait"
  | Race_introduced -> "restore-pdom-order"

let pp_finding ppf f =
  Format.fprintf ppf "srrace [%s] %s/bb%d (line %a) global %s: %s; fix: %s"
    (category_name f.category) f.site.in_func f.site.block pp_line f.site.src_line f.global
    f.message f.fix

let pp_machine ppf f =
  Format.fprintf ppf
    "srrace: category=%s func=%s block=bb%d line=%a global=%s other_func=%s other_line=%a \
     msg=%s fix=%s hint=%s"
    (category_name f.category) f.site.in_func f.site.block pp_line f.site.src_line f.global
    f.other.in_func pp_line f.other.src_line f.message f.fix (hint f)

let render fs = String.concat "\n" (List.map (Format.asprintf "%a" pp_machine) fs)
