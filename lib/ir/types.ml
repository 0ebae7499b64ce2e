(* Core intermediate representation for MiniSIMT kernels.

   The IR is a conventional register machine over a control-flow graph:
   unlimited per-thread virtual registers, basic blocks ending in a single
   terminator, and functions collected into a program with one designated
   kernel entry. Convergence-barrier primitives (the paper's JoinBarrier /
   WaitBarrier / CancelBarrier / RejoinBarrier, Table 1) are ordinary
   instructions so that the synchronization passes can place them with
   instruction granularity. *)

(* Virtual per-thread register, dense within a function. *)
type reg = int

(* Convergence-barrier register id, allocated program-wide. *)
type barrier = int

type block_id = int

(* Runtime values are dynamically typed: integers double as booleans
   (0 = false). *)
type value = I of int | F of float

type binop =
  (* integer arithmetic *)
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  (* float arithmetic *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmin
  | Fmax
  (* integer comparisons, producing I 0 / I 1 *)
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  (* float comparisons, producing I 0 / I 1 *)
  | Feq
  | Fne
  | Flt
  | Fle
  | Fgt
  | Fge

type unop =
  | Neg
  | Not (* logical: nonzero -> 0, zero -> 1 *)
  | Fneg
  | Itof
  | Ftoi
  | Sqrt
  | Exp
  | Log
  | Sin
  | Cos
  | Fabs

type operand = Reg of reg | Imm of value

type inst =
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Mov of reg * operand
  | Load of reg * operand (* dst <- mem[addr] *)
  | Store of operand * operand (* mem[addr] <- value *)
  | Tid of reg (* global thread index *)
  | Lane of reg (* lane index within the warp *)
  | Nthreads of reg (* total launched threads *)
  | Rand of reg (* per-thread uniform float in [0, 1) *)
  | Randint of reg * operand (* per-thread uniform int in [0, n) *)
  | Call of { callee : string; args : operand list; ret : reg option }
  (* Convergence-barrier primitives (Table 1 of the paper). [Rejoin] is
     semantically a join; keeping it distinct preserves the provenance the
     paper's Figure 4(d) shows and aids testing. *)
  | Join of barrier
  | Rejoin of barrier
  | Wait of barrier
  | Wait_threshold of barrier * int
      (* Soft barrier (§4.6): release the blocked participants once at
         least [threshold] of them have arrived, or all remaining
         participants have arrived or withdrawn. *)
  | Cancel of barrier

type terminator =
  | Jump of block_id
  | Br of { cond : operand; if_true : block_id; if_false : block_id }
  | Ret of operand option (* return from a device function *)
  | Exit (* thread finishes the kernel *)

type block = {
  id : block_id;
  mutable insts : inst list;
  mutable term : terminator;
  mutable src_line : int option;
      (* source line of the statement that opened this block, for
         diagnostics; [None] for synthesized blocks *)
}

(* A user (or auto-detector) reconvergence hint, §4.1: the predicted
   reconvergence location plus the region where the prediction applies. *)
type hint_target = Label_target of string | Callee_target of string

type predict_hint = {
  target : hint_target;
  region_start : block_id; (* block where the Predict directive lands *)
  threshold : int option; (* soft-barrier threshold, if any *)
}

type func = {
  fname : string;
  params : reg list;
  blocks : (block_id, block) Hashtbl.t;
  mutable entry : block_id;
  mutable next_reg : int;
  mutable next_block : int;
  mutable hints : predict_hint list;
  mutable labels : (string * block_id) list; (* reconvergence labels *)
}

type program = {
  funcs : (string, func) Hashtbl.t;
  mutable kernel : string; (* name of the default (entry) kernel *)
  mutable kernels : string list;
      (* every launchable kernel, in declaration order; contains [kernel].
         Hosts may launch any of them ([Interp.run ?entry]). *)
  mutable next_barrier : int;
  globals : (string, int * int) Hashtbl.t; (* name -> (base, size) *)
  mutable mem_size : int;
  mutable float_regions : (int * int) list;
      (* (base, size) of float-typed globals; their cells launch as
         [F 0.0] instead of [I 0] *)
}

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let block f id =
  match Hashtbl.find_opt f.blocks id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.Types.block: no block %d in %s" id f.fname)

let successors term =
  match term with
  | Jump target -> [ target ]
  | Br { if_true; if_false; _ } ->
    if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Ret _ | Exit -> []

let block_ids f =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) f.blocks [] in
  List.sort compare ids

(* Function names, ascending: the deterministic order of every
   whole-program walk. *)
let func_names p = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) p.funcs [])

let iter_blocks f g = List.iter (fun id -> g (block f id)) (block_ids f)

let predecessors f =
  let preds = Hashtbl.create 16 in
  iter_blocks f (fun b ->
      List.iter
        (fun s ->
          let existing = Option.value (Hashtbl.find_opt preds s) ~default:[] in
          Hashtbl.replace preds s (b.id :: existing))
        (successors b.term));
  fun id -> Option.value (Hashtbl.find_opt preds id) ~default:[]

let operand_uses = function Reg r -> [ r ] | Imm _ -> []

(* Registers defined by an instruction. *)
let defs = function
  | Bin (_, d, _, _)
  | Un (_, d, _)
  | Mov (d, _)
  | Load (d, _)
  | Tid d
  | Lane d
  | Nthreads d
  | Rand d
  | Randint (d, _) -> [ d ]
  | Call { ret = Some d; _ } -> [ d ]
  | Call { ret = None; _ } -> []
  | Store _ | Join _ | Rejoin _ | Wait _ | Wait_threshold _ | Cancel _ -> []

(* Registers read by an instruction. *)
let uses = function
  | Bin (_, _, a, b) -> operand_uses a @ operand_uses b
  | Un (_, _, a) | Mov (_, a) | Load (_, a) | Randint (_, a) -> operand_uses a
  | Store (a, v) -> operand_uses a @ operand_uses v
  | Call { args; _ } -> List.concat_map operand_uses args
  | Tid _ | Lane _ | Nthreads _ | Rand _ -> []
  | Join _ | Rejoin _ | Wait _ | Wait_threshold _ | Cancel _ -> []

let term_uses = function
  | Br { cond; _ } -> operand_uses cond
  | Ret (Some op) -> operand_uses op
  | Ret None | Jump _ | Exit -> []

(* Barrier referenced by an instruction, if any. *)
let barrier_of = function
  | Join b | Rejoin b | Wait b | Wait_threshold (b, _) | Cancel b -> Some b
  | Bin _ | Un _ | Mov _ | Load _ | Store _ | Tid _ | Lane _ | Nthreads _ | Rand _ | Randint _
  | Call _ -> None

let is_barrier_inst i = Option.is_some (barrier_of i)

(* Integer comparisons on binop classes used by the cost model and the
   divergence analysis. *)
let is_float_op = function
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Feq | Fne | Flt | Fle | Fgt | Fge -> true
  | Add | Sub | Mul | Div | Rem | Min | Max | Eq | Ne | Lt | Le | Gt | Ge -> false

let is_special_unop = function
  | Sqrt | Exp | Log | Sin | Cos -> true
  | Neg | Not | Fneg | Itof | Ftoi | Fabs -> false
