open Sets

type weights = {
  alu : int;
  float_op : int;
  special : int;
  memory : int;
  call_overhead : int;
  barrier : int;
  rand : int;
  default_trip : int;
}

let default_weights =
  {
    alu = 1;
    float_op = 2;
    special = 8;
    memory = 24;
    call_overhead = 4;
    barrier = 1;
    rand = 4;
    default_trip = 8;
  }

let inst_cost w = function
  | Ir.Types.Bin (op, _, _, _) -> if Ir.Types.is_float_op op then w.float_op else w.alu
  | Ir.Types.Un (op, _, _) -> if Ir.Types.is_special_unop op then w.special else w.alu
  | Ir.Types.Mov _ | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _ -> w.alu
  | Ir.Types.Load _ | Ir.Types.Store _ -> w.memory
  | Ir.Types.Rand _ | Ir.Types.Randint _ -> w.rand
  | Ir.Types.Call _ -> w.call_overhead
  | Ir.Types.Join _ | Ir.Types.Rejoin _ | Ir.Types.Wait _ | Ir.Types.Wait_threshold _
  | Ir.Types.Cancel _ -> w.barrier

let block_cost w (b : Ir.Types.block) =
  1 + List.fold_left (fun acc i -> acc + inst_cost w i) 0 b.insts

let region_cost w (f : Ir.Types.func) blocks ~loops ~profile =
  Int_set.fold
    (fun id acc ->
      let b = Ir.Types.block f id in
      let freq =
        match profile with
        | Some p when Profile.count p ~func:f.fname ~block:id > 0 ->
          float_of_int (Profile.count p ~func:f.fname ~block:id)
        | Some _ | None ->
          float_of_int w.default_trip ** float_of_int (Loops.depth_of loops id)
      in
      acc +. (float_of_int (block_cost w b) *. freq))
    blocks 0.0

let func_body_cost w (p : Ir.Types.program) name =
  match Hashtbl.find_opt p.funcs name with
  | None -> 0
  | Some f ->
    let direct = ref 0 in
    Ir.Types.iter_blocks f (fun b ->
        direct := !direct + block_cost w b;
        List.iter
          (fun i ->
            match i with
            | Ir.Types.Call { callee; _ } when not (String.equal callee name) -> (
              match Hashtbl.find_opt p.funcs callee with
              | Some g ->
                Ir.Types.iter_blocks g (fun gb -> direct := !direct + block_cost w gb)
              | None -> ())
            | Ir.Types.Call _ | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _
            | Ir.Types.Load _ | Ir.Types.Store _ | Ir.Types.Tid _ | Ir.Types.Lane _
            | Ir.Types.Nthreads _ | Ir.Types.Rand _ | Ir.Types.Randint _ | Ir.Types.Join _
            | Ir.Types.Rejoin _ | Ir.Types.Wait _ | Ir.Types.Wait_threshold _
            | Ir.Types.Cancel _ -> ())
          b.insts);
    !direct
