open Types

let pp_value ppf = function
  | I n -> Format.fprintf ppf "%d" n
  | F x -> Format.fprintf ppf "%h" x

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm v -> pp_value ppf v

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fmin -> "fmin"
  | Fmax -> "fmax"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Feq -> "feq"
  | Fne -> "fne"
  | Flt -> "flt"
  | Fle -> "fle"
  | Fgt -> "fgt"
  | Fge -> "fge"

let unop_name = function
  | Neg -> "neg"
  | Not -> "not"
  | Fneg -> "fneg"
  | Itof -> "itof"
  | Ftoi -> "ftoi"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Fabs -> "fabs"

let pp_inst ppf = function
  | Bin (op, d, a, b) ->
    Format.fprintf ppf "r%d = %s %a, %a" d (binop_name op) pp_operand a pp_operand b
  | Un (op, d, a) -> Format.fprintf ppf "r%d = %s %a" d (unop_name op) pp_operand a
  | Mov (d, a) -> Format.fprintf ppf "r%d = mov %a" d pp_operand a
  | Load (d, a) -> Format.fprintf ppf "r%d = load [%a]" d pp_operand a
  | Store (a, v) -> Format.fprintf ppf "store [%a], %a" pp_operand a pp_operand v
  | Tid d -> Format.fprintf ppf "r%d = tid" d
  | Lane d -> Format.fprintf ppf "r%d = lane" d
  | Nthreads d -> Format.fprintf ppf "r%d = nthreads" d
  | Rand d -> Format.fprintf ppf "r%d = rand" d
  | Randint (d, n) -> Format.fprintf ppf "r%d = randint %a" d pp_operand n
  | Call { callee; args; ret } ->
    let pp_args =
      Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_operand
    in
    (match ret with
    | Some d -> Format.fprintf ppf "r%d = call %s(%a)" d callee pp_args args
    | None -> Format.fprintf ppf "call %s(%a)" callee pp_args args)
  | Join b -> Format.fprintf ppf "join.barrier b%d" b
  | Rejoin b -> Format.fprintf ppf "rejoin.barrier b%d" b
  | Wait b -> Format.fprintf ppf "wait.barrier b%d" b
  | Wait_threshold (b, k) -> Format.fprintf ppf "wait.barrier.th b%d, %d" b k
  | Cancel b -> Format.fprintf ppf "cancel.barrier b%d" b

let pp_term ppf = function
  | Jump t -> Format.fprintf ppf "jump bb%d" t
  | Br { cond; if_true; if_false } ->
    Format.fprintf ppf "br %a, bb%d, bb%d" pp_operand cond if_true if_false
  | Ret (Some op) -> Format.fprintf ppf "ret %a" pp_operand op
  | Ret None -> Format.fprintf ppf "ret"
  | Exit -> Format.fprintf ppf "exit"

let pp_hint ppf hint =
  let target =
    match hint.target with
    | Label_target l -> Printf.sprintf "label %s" l
    | Callee_target f -> Printf.sprintf "func %s" f
  in
  let threshold =
    match hint.threshold with None -> "" | Some k -> Printf.sprintf " threshold %d" k
  in
  Format.fprintf ppf "; predict %s from bb%d%s" target hint.region_start threshold

let pp_func ppf f =
  Format.fprintf ppf "func %s(%s) {@." f.fname
    (String.concat ", " (List.map (Printf.sprintf "r%d") f.params));
  List.iter (fun h -> Format.fprintf ppf "  %a@." pp_hint h) f.hints;
  iter_blocks f (fun b ->
      let labels = List.filter_map (fun (n, id) -> if id = b.id then Some n else None) f.labels in
      let label_note =
        match labels with [] -> "" | ls -> Printf.sprintf "  ; label %s" (String.concat ", " ls)
      in
      let entry_note = if b.id = f.entry then "  ; entry" else "" in
      Format.fprintf ppf "bb%d:%s%s@." b.id entry_note label_note;
      List.iter (fun i -> Format.fprintf ppf "  %a@." pp_inst i) b.insts;
      Format.fprintf ppf "  %a@." pp_term b.term);
  Format.fprintf ppf "}@."

let pp_program ppf p =
  Hashtbl.iter (fun name (base, size) -> Format.fprintf ppf "global %s @%d[%d]@." name base size)
    p.globals;
  let names = func_names p in
  let kernel_first = List.filter (String.equal p.kernel) names in
  let rest = List.filter (fun n -> not (String.equal p.kernel n)) names in
  List.iter
    (fun n ->
      if String.equal n p.kernel then Format.fprintf ppf "; kernel@."
      else if List.mem n p.kernels then Format.fprintf ppf "; kernel (secondary)@.";
      pp_func ppf (Hashtbl.find p.funcs n))
    (kernel_first @ rest)

let func_to_string f = Format.asprintf "%a" pp_func f
let program_to_string p = Format.asprintf "%a" pp_program p
