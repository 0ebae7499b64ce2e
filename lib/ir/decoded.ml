module L = Linear
module T = Types

type opcode =
  | Bin
  | Un
  | Mov
  | Load
  | Store
  | Tid
  | Lane
  | Nthreads
  | Rand
  | Randint
  | Join
  | Rejoin
  | Wait
  | Wait_threshold
  | Cancel
  | Call
  | Ret
  | Br
  | Jump
  | Exit

let opcode_name = function
  | Bin -> "bin"
  | Un -> "un"
  | Mov -> "mov"
  | Load -> "load"
  | Store -> "store"
  | Tid -> "tid"
  | Lane -> "lane"
  | Nthreads -> "nthreads"
  | Rand -> "rand"
  | Randint -> "randint"
  | Join -> "join"
  | Rejoin -> "rejoin"
  | Wait -> "wait"
  | Wait_threshold -> "wait.th"
  | Cancel -> "cancel"
  | Call -> "call"
  | Ret -> "ret"
  | Br -> "br"
  | Jump -> "jump"
  | Exit -> "exit"

type lclass =
  | Lc_alu
  | Lc_float
  | Lc_special
  | Lc_branch
  | Lc_barrier
  | Lc_call
  | Lc_rand
  | Lc_mem

type call = {
  centry : int;
  cn_regs : int;
  cargs : int array;
  cret : int;
  ccallee : string;
}

type t = {
  linear : L.t;
  op : opcode array;
  a : int array;
  b : int array;
  c : int array;
  lclass : lclass array;
  bop : T.binop array;
  uop : T.unop array;
  vals : T.value array;
  calls : call array;
}

let enc_is_imm e = e land 1 <> 0
let enc_index e = e lsr 1

let decode (linear : L.t) =
  let n = Array.length linear.L.code in
  let op = Array.make n Exit in
  let a = Array.make n 0 in
  let b = Array.make n 0 in
  let c = Array.make n 0 in
  let lclass = Array.make n Lc_alu in
  let bop = Array.make n T.Add in
  let uop = Array.make n T.Neg in
  (* Immediates and calls are appended in pc order, so decoding is a pure
     function of the linear program: same input, same tables. *)
  let vals = ref [] and n_vals = ref 0 in
  let calls = ref [] and n_calls = ref 0 in
  let enc = function
    | T.Reg r -> r lsl 1
    | T.Imm v ->
      let i = !n_vals in
      vals := v :: !vals;
      incr n_vals;
      (i lsl 1) lor 1
  in
  let add_call ci =
    let i = !n_calls in
    calls := ci :: !calls;
    incr n_calls;
    i
  in
  for pc = 0 to n - 1 do
    match linear.L.code.(pc) with
    | L.Op i -> (
      match i with
      | T.Bin (o, d, x, y) ->
        op.(pc) <- Bin;
        a.(pc) <- d;
        b.(pc) <- enc x;
        c.(pc) <- enc y;
        bop.(pc) <- o;
        lclass.(pc) <- (if T.is_float_op o then Lc_float else Lc_alu)
      | T.Un (o, d, x) ->
        op.(pc) <- Un;
        a.(pc) <- d;
        b.(pc) <- enc x;
        uop.(pc) <- o;
        lclass.(pc) <- (if T.is_special_unop o then Lc_special else Lc_alu)
      | T.Mov (d, x) ->
        op.(pc) <- Mov;
        a.(pc) <- d;
        b.(pc) <- enc x
      | T.Load (d, x) ->
        op.(pc) <- Load;
        a.(pc) <- d;
        b.(pc) <- enc x;
        lclass.(pc) <- Lc_mem
      | T.Store (x, v) ->
        op.(pc) <- Store;
        a.(pc) <- enc x;
        b.(pc) <- enc v;
        lclass.(pc) <- Lc_mem
      | T.Tid d ->
        op.(pc) <- Tid;
        a.(pc) <- d
      | T.Lane d ->
        op.(pc) <- Lane;
        a.(pc) <- d
      | T.Nthreads d ->
        op.(pc) <- Nthreads;
        a.(pc) <- d
      | T.Rand d ->
        op.(pc) <- Rand;
        a.(pc) <- d;
        lclass.(pc) <- Lc_rand
      | T.Randint (d, x) ->
        op.(pc) <- Randint;
        a.(pc) <- d;
        b.(pc) <- enc x;
        lclass.(pc) <- Lc_rand
      | T.Join s ->
        op.(pc) <- Join;
        a.(pc) <- s;
        lclass.(pc) <- Lc_barrier
      | T.Rejoin s ->
        op.(pc) <- Rejoin;
        a.(pc) <- s;
        lclass.(pc) <- Lc_barrier
      | T.Wait s ->
        op.(pc) <- Wait;
        a.(pc) <- s;
        lclass.(pc) <- Lc_barrier
      | T.Wait_threshold (s, k) ->
        op.(pc) <- Wait_threshold;
        a.(pc) <- s;
        b.(pc) <- k;
        lclass.(pc) <- Lc_barrier
      | T.Cancel s ->
        op.(pc) <- Cancel;
        a.(pc) <- s;
        lclass.(pc) <- Lc_barrier
      | T.Call _ ->
        (* The linearizer turns every Call into Lcall. *)
        invalid_arg (Printf.sprintf "Decoded.decode: raw call at pc %d" pc))
    | L.Lcall { entry; n_regs; args; ret; callee } ->
      op.(pc) <- Call;
      a.(pc) <-
        add_call
          {
            centry = entry;
            cn_regs = max n_regs 1;
            cargs = Array.of_list (List.map enc args);
            cret = (match ret with Some r -> r | None -> -1);
            ccallee = callee;
          };
      lclass.(pc) <- Lc_call
    | L.Lret x ->
      op.(pc) <- Ret;
      a.(pc) <- (match x with Some o -> enc o | None -> -1);
      lclass.(pc) <- Lc_call
    | L.Lbr { cond; target } ->
      op.(pc) <- Br;
      a.(pc) <- enc cond;
      b.(pc) <- target;
      lclass.(pc) <- Lc_branch
    | L.Ljump target ->
      op.(pc) <- Jump;
      a.(pc) <- target;
      lclass.(pc) <- Lc_branch
    | L.Lexit ->
      op.(pc) <- Exit;
      lclass.(pc) <- Lc_branch
  done;
  {
    linear;
    op;
    a;
    b;
    c;
    lclass;
    bop;
    uop;
    vals = Array.of_list (List.rev !vals);
    calls = Array.of_list (List.rev !calls);
  }

(* ---- dump ---- *)

let pp_enc t ppf e =
  if e < 0 then Format.pp_print_string ppf "-"
  else if enc_is_imm e then
    Format.fprintf ppf "imm[%d]=%a" (enc_index e) Printer.pp_value t.vals.(enc_index e)
  else Format.fprintf ppf "r%d" (enc_index e)

let lclass_name = function
  | Lc_alu -> "alu"
  | Lc_float -> "float"
  | Lc_special -> "special"
  | Lc_branch -> "branch"
  | Lc_barrier -> "barrier"
  | Lc_call -> "call"
  | Lc_rand -> "rand"
  | Lc_mem -> "mem"

let pp ppf t =
  Format.fprintf ppf "decoded: %d slots, %d imms, %d calls@." (Array.length t.op)
    (Array.length t.vals) (Array.length t.calls);
  Array.iteri
    (fun pc opc ->
      List.iter
        (fun (fi : L.finfo) ->
          if fi.L.entry_pc = pc then Format.fprintf ppf "; --- %s ---@." fi.L.fname)
        t.linear.L.funcs;
      let loc = t.linear.L.locs.(pc) in
      Format.fprintf ppf "%4d [bb%d] %-8s" pc loc.L.in_block (opcode_name opc);
      let enc1 e = Format.fprintf ppf " %a" (pp_enc t) e in
      (match opc with
      | Bin ->
        Format.fprintf ppf ".%s r%d <-" (Printer.binop_name t.bop.(pc)) t.a.(pc);
        enc1 t.b.(pc);
        enc1 t.c.(pc)
      | Un ->
        Format.fprintf ppf ".%s r%d <-" (Printer.unop_name t.uop.(pc)) t.a.(pc);
        enc1 t.b.(pc)
      | Mov | Load | Randint ->
        Format.fprintf ppf " r%d <-" t.a.(pc);
        enc1 t.b.(pc)
      | Store ->
        enc1 t.a.(pc);
        enc1 t.b.(pc)
      | Tid | Lane | Nthreads | Rand -> Format.fprintf ppf " r%d" t.a.(pc)
      | Join | Rejoin | Wait | Cancel -> Format.fprintf ppf " b%d" t.a.(pc)
      | Wait_threshold -> Format.fprintf ppf " b%d k=%d" t.a.(pc) t.b.(pc)
      | Call ->
        let ci = t.calls.(t.a.(pc)) in
        Format.fprintf ppf " %s ->%d regs=%d ret=%s args=(" ci.ccallee ci.centry ci.cn_regs
          (if ci.cret >= 0 then Printf.sprintf "r%d" ci.cret else "-");
        Array.iteri
          (fun i e ->
            if i > 0 then Format.pp_print_string ppf ", ";
            pp_enc t ppf e)
          ci.cargs;
        Format.pp_print_string ppf ")"
      | Ret -> enc1 t.a.(pc)
      | Br ->
        enc1 t.a.(pc);
        Format.fprintf ppf " ->%d" t.b.(pc)
      | Jump -> Format.fprintf ppf " ->%d" t.a.(pc)
      | Exit -> ());
      Format.fprintf ppf "  ; %s@." (lclass_name t.lclass.(pc)))
    t.op
