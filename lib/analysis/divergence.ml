open Sets

type func_info = {
  divergent_regs : Int_set.t;
  divergent_branches : Int_set.t;
  returns_divergent : bool;
  divergent_loads : int;
}

type t = { infos : (string, func_info) Hashtbl.t }

let op_divergent divregs = function
  | Ir.Types.Reg r -> Int_set.mem r divregs
  | Ir.Types.Imm _ -> false

(* Blocks control-dependent on at least one divergent branch: X is control
   dependent on branch block B iff B is in X's post-dominance frontier
   [pdf x]. *)
let control_dependent_blocks g pdf divergent_branches =
  List.filter
    (fun x -> List.exists (fun b -> Int_set.mem b divergent_branches) (pdf x))
    (Cfg.nodes g)
  |> Int_set.of_list

let analyze_func ~callee_div (f : Ir.Types.func) ~params_divergent =
  let g = Cfg.of_func f in
  let pdf = Dom.Post.frontiers (Dom.Post.compute g) in
  let divregs = ref (if params_divergent then Int_set.of_list f.params else Int_set.empty) in
  let divbranches = ref Int_set.empty in
  let returns = ref false in
  let changed = ref true in
  while !changed do
    changed := false;
    let cd_blocks = control_dependent_blocks g pdf !divbranches in
    let mark r =
      if not (Int_set.mem r !divregs) then begin
        divregs := Int_set.add r !divregs;
        changed := true
      end
    in
    Ir.Types.iter_blocks f (fun b ->
        let under_divergence = Int_set.mem b.id cd_blocks in
        List.iter
          (fun inst ->
            let any_use_div =
              List.exists (fun r -> Int_set.mem r !divregs) (Ir.Types.uses inst)
            in
            let intrinsically_div =
              match inst with
              | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Rand _ | Ir.Types.Randint _ -> true
              | Ir.Types.Call { callee; _ } -> callee_div callee
              | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _
              | Ir.Types.Store _ | Ir.Types.Nthreads _ | Ir.Types.Join _ | Ir.Types.Rejoin _
              | Ir.Types.Wait _ | Ir.Types.Wait_threshold _ | Ir.Types.Cancel _ -> false
            in
            if any_use_div || intrinsically_div || under_divergence then
              List.iter mark (Ir.Types.defs inst))
          b.insts;
        (match b.term with
        | Ir.Types.Br { cond; _ } ->
          if op_divergent !divregs cond && not (Int_set.mem b.id !divbranches) then begin
            divbranches := Int_set.add b.id !divbranches;
            changed := true
          end
        | Ir.Types.Ret op ->
          let value_div =
            match op with Some o -> op_divergent !divregs o | None -> false
          in
          if (value_div || under_divergence) && not !returns then begin
            returns := true;
            changed := true
          end
        | Ir.Types.Jump _ | Ir.Types.Exit -> ()))
  done;
  let divergent_loads = ref 0 in
  Ir.Types.iter_blocks f (fun b ->
      List.iter
        (fun inst ->
          match inst with
          | Ir.Types.Load (_, addr) | Ir.Types.Store (addr, _) ->
            if op_divergent !divregs addr then incr divergent_loads
          | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Tid _ | Ir.Types.Lane _
          | Ir.Types.Nthreads _ | Ir.Types.Rand _ | Ir.Types.Randint _ | Ir.Types.Call _
          | Ir.Types.Join _ | Ir.Types.Rejoin _ | Ir.Types.Wait _ | Ir.Types.Wait_threshold _
          | Ir.Types.Cancel _ -> ())
        b.insts);
  {
    divergent_regs = !divregs;
    divergent_branches = !divbranches;
    returns_divergent = !returns;
    divergent_loads = !divergent_loads;
  }

let run (p : Ir.Types.program) =
  let cg = Callgraph.build p in
  let infos = Hashtbl.create 8 in
  let callee_div name =
    match Hashtbl.find_opt infos name with
    | Some info -> info.returns_divergent
    | None -> true (* cycle or not-yet-analyzed: conservative *)
  in
  List.iter
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      let is_kernel = List.mem name p.kernels || String.equal name p.kernel in
      (* Kernel parameters come uniformly from the launch; device-function
         parameters are conservatively thread-varying. *)
      let info = analyze_func ~callee_div f ~params_divergent:(not is_kernel) in
      Hashtbl.replace infos name info)
    (Callgraph.bottom_up cg);
  { infos }

let info t ~func =
  match Hashtbl.find_opt t.infos func with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Divergence: unknown function %s" func)

let divergent_regs t ~func = (info t ~func).divergent_regs
let divergent_branches t ~func = (info t ~func).divergent_branches
let branch_is_divergent t ~func ~block = Int_set.mem block (info t ~func).divergent_branches
let returns_divergent t ~func = (info t ~func).returns_divergent
let divergent_loads t ~func = (info t ~func).divergent_loads

let pp ppf t =
  let names = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.infos []) in
  List.iter
    (fun n ->
      let i = Hashtbl.find t.infos n in
      Format.fprintf ppf "%s: branches=%a regs=%a ret_div=%b div_mem=%d@." n pp_int_set
        i.divergent_branches pp_int_set i.divergent_regs i.returns_divergent i.divergent_loads)
    names
