open Types

type linst =
  | Op of inst
  | Lcall of { entry : int; n_regs : int; args : operand list; ret : reg option; callee : string }
  | Lbr of { cond : operand; target : int }
  | Ljump of int
  | Lret of operand option
  | Lexit

type finfo = { fname : string; entry_pc : int; arity : int; n_regs : int }
type location = { in_func : string; in_block : block_id }

type t = {
  code : linst array;
  locs : location array;
  funcs : finfo list;
  kernel : finfo;
  kernels : finfo list;
  n_barriers : int;
  mem_size : int;
  float_regions : (int * int) list;
}

(* Reverse post order over reachable blocks, entry first. *)
let rpo f =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      (match Hashtbl.find_opt f.blocks id with
      | Some b -> List.iter visit (successors b.term)
      | None -> ());
      order := id :: !order
    end
  in
  visit f.entry;
  !order

(* Size in slots of a block's body and terminator given the block laid out
   immediately after it (fall-through target), if any. *)
let term_size term ~next =
  match term with
  | Jump t -> if Some t = next then 0 else 1
  | Br { if_false; _ } -> if Some if_false = next then 1 else 2
  | Ret _ | Exit -> 1

let block_size b ~next = List.length b.insts + term_size b.term ~next

let function_order (p : program) =
  p.kernel :: List.filter (fun n -> not (String.equal n p.kernel)) (func_names p)

let linearize (p : program) =
  Verifier.check_program_exn p;
  (* Phase 1: lay out blocks within each function and functions within the
     program, so every branch and call target is known before emission. *)
  let layouts = Hashtbl.create 8 in
  (* fname -> (order, block offsets table, total size) *)
  let func_entries = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      let order = rpo f in
      let offsets = Hashtbl.create 16 in
      let rec assign offset = function
        | [] -> offset
        | id :: rest ->
          Hashtbl.replace offsets id offset;
          let next = match rest with [] -> None | n :: _ -> Some n in
          assign (offset + block_size (block f id) ~next) rest
      in
      let size = assign 0 order in
      Hashtbl.replace layouts name (order, offsets);
      Hashtbl.replace func_entries name !total;
      total := !total + size)
    (function_order p);
  let finfo_of name =
    let f = Hashtbl.find p.funcs name in
    {
      fname = name;
      entry_pc = Hashtbl.find func_entries name;
      arity = List.length f.params;
      n_regs = f.next_reg;
    }
  in
  (* Phase 2: emit. *)
  let code = Array.make !total Lexit in
  let locs = Array.make !total { in_func = ""; in_block = -1 } in
  List.iter
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      let order, offsets = Hashtbl.find layouts name in
      let base = Hashtbl.find func_entries name in
      let pc_of_block id = base + Hashtbl.find offsets id in
      let rec emit_blocks = function
        | [] -> ()
        | id :: rest ->
          let b = block f id in
          let next = match rest with [] -> None | n :: _ -> Some n in
          let pc = ref (pc_of_block id) in
          let put linst =
            code.(!pc) <- linst;
            locs.(!pc) <- { in_func = name; in_block = id };
            incr pc
          in
          List.iter
            (fun i ->
              match i with
              | Call { callee; args; ret } ->
                let callee_func = Hashtbl.find p.funcs callee in
                put
                  (Lcall
                     {
                       entry = Hashtbl.find func_entries callee;
                       n_regs = callee_func.next_reg;
                       args;
                       ret;
                       callee;
                     })
              | Bin _ | Un _ | Mov _ | Load _ | Store _ | Tid _ | Lane _ | Nthreads _ | Rand _
              | Randint _ | Join _ | Rejoin _ | Wait _ | Wait_threshold _ | Cancel _ ->
                put (Op i))
            b.insts;
          (match b.term with
          | Jump t -> if Some t <> next then put (Ljump (pc_of_block t))
          | Br { cond; if_true; if_false } ->
            put (Lbr { cond; target = pc_of_block if_true });
            if Some if_false <> next then put (Ljump (pc_of_block if_false))
          | Ret op -> put (Lret op)
          | Exit -> put Lexit);
          emit_blocks rest
      in
      emit_blocks order)
    (function_order p);
  let funcs = List.map finfo_of (function_order p) in
  {
    code;
    locs;
    funcs;
    kernel = finfo_of p.kernel;
    kernels =
      List.map finfo_of
        (if List.mem p.kernel p.kernels then p.kernels else p.kernel :: p.kernels);
    n_barriers = p.next_barrier;
    mem_size = p.mem_size;
    float_regions = p.float_regions;
  }

let block_entry_pc t ~func ~block =
  (* locs is in layout order per function, so the first pc tagged with the
     block is its entry; blocks that emitted no code raise Not_found. *)
  let found = ref None in
  Array.iteri
    (fun pc loc ->
      if !found = None && String.equal loc.in_func func && loc.in_block = block then
        found := Some pc)
    t.locs;
  match !found with Some pc -> pc | None -> raise Not_found

let pp_linst ppf = function
  | Op i -> Printer.pp_inst ppf i
  | Lcall { callee; args; ret; entry; _ } ->
    let pp_args =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        Printer.pp_operand
    in
    (match ret with
    | Some d -> Format.fprintf ppf "r%d = call %s@%d(%a)" d callee entry pp_args args
    | None -> Format.fprintf ppf "call %s@%d(%a)" callee entry pp_args args)
  | Lbr { cond; target } -> Format.fprintf ppf "br %a, @%d" Printer.pp_operand cond target
  | Ljump target -> Format.fprintf ppf "jump @%d" target
  | Lret (Some op) -> Format.fprintf ppf "ret %a" Printer.pp_operand op
  | Lret None -> Format.fprintf ppf "ret"
  | Lexit -> Format.fprintf ppf "exit"

let pp ppf t =
  Array.iteri
    (fun pc linst ->
      List.iter
        (fun fi -> if fi.entry_pc = pc then Format.fprintf ppf "; --- %s ---@." fi.fname)
        t.funcs;
      let loc = t.locs.(pc) in
      Format.fprintf ppf "%4d [bb%d]  %a@." pc loc.in_block pp_linst linst)
    t.code
