open Ir.Types

exception Type_error of string

let type_error op a b =
  let pp v = Format.asprintf "%a" Ir.Printer.pp_value v in
  raise
    (Type_error (Printf.sprintf "%s applied to %s, %s" (Ir.Printer.binop_name op) (pp a) (pp b)))

(* Shared: comparisons run once per lane per loop iteration, so boxing a
   fresh [I 0]/[I 1] each time is measurable allocation pressure. Results
   are only ever compared structurally, never physically. *)
let v_false = I 0

let v_true = I 1

let bool_val b = if b then v_true else v_false

let binop op a b =
  match (op, a, b) with
  | Add, I x, I y -> I (x + y)
  | Sub, I x, I y -> I (x - y)
  | Mul, I x, I y -> I (x * y)
  | Div, I x, I y -> if y = 0 then raise Division_by_zero else I (x / y)
  | Rem, I x, I y -> if y = 0 then raise Division_by_zero else I (x mod y)
  | Min, I x, I y -> I (min x y)
  | Max, I x, I y -> I (max x y)
  | Fadd, F x, F y -> F (x +. y)
  | Fsub, F x, F y -> F (x -. y)
  | Fmul, F x, F y -> F (x *. y)
  | Fdiv, F x, F y -> F (x /. y)
  | Fmin, F x, F y -> F (Float.min x y)
  | Fmax, F x, F y -> F (Float.max x y)
  | Eq, I x, I y -> bool_val (x = y)
  | Ne, I x, I y -> bool_val (x <> y)
  | Lt, I x, I y -> bool_val (x < y)
  | Le, I x, I y -> bool_val (x <= y)
  | Gt, I x, I y -> bool_val (x > y)
  | Ge, I x, I y -> bool_val (x >= y)
  | Feq, F x, F y -> bool_val (x = y)
  | Fne, F x, F y -> bool_val (x <> y)
  | Flt, F x, F y -> bool_val (x < y)
  | Fle, F x, F y -> bool_val (x <= y)
  | Fgt, F x, F y -> bool_val (x > y)
  | Fge, F x, F y -> bool_val (x >= y)
  | ( ( Add | Sub | Mul | Div | Rem | Min | Max | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Eq
      | Ne | Lt | Le | Gt | Ge | Feq | Fne | Flt | Fle | Fgt | Fge ),
      _,
      _ ) -> type_error op a b

let unop op a =
  let err () =
    let pp v = Format.asprintf "%a" Ir.Printer.pp_value v in
    raise (Type_error (Printf.sprintf "%s applied to %s" (Ir.Printer.unop_name op) (pp a)))
  in
  match (op, a) with
  | Neg, I x -> I (-x)
  | Not, I x -> bool_val (x = 0)
  | Fneg, F x -> F (-.x)
  | Itof, I x -> F (float_of_int x)
  | Ftoi, F x -> I (int_of_float x)
  | Sqrt, F x -> F (sqrt x)
  | Exp, F x -> F (exp x)
  | Log, F x -> F (log x)
  | Sin, F x -> F (sin x)
  | Cos, F x -> F (cos x)
  | Fabs, F x -> F (Float.abs x)
  | (Neg | Not | Itof), F _ -> err ()
  | (Fneg | Ftoi | Sqrt | Exp | Log | Sin | Cos | Fabs), I _ -> err ()

let truthy = function I 0 -> false | I _ -> true | F x -> x <> 0.0

let to_int = function
  | I x -> x
  | F _ as v ->
    raise (Type_error (Format.asprintf "expected int, got %a" Ir.Printer.pp_value v))

let to_float = function
  | F x -> x
  | I _ as v ->
    raise (Type_error (Format.asprintf "expected float, got %a" Ir.Printer.pp_value v))
