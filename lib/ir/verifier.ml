open Types

type error = { where : string; message : string }

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.message

let reachable_blocks f =
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Hashtbl.find_opt f.blocks id with
      | Some b -> List.iter visit (successors b.term)
      | None -> ()
    end
  in
  visit f.entry;
  seen

let check_func program ~is_kernel f =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := { where = f.fname; message = m } :: !errors) fmt in
  let check_block_ref ctx id =
    if not (Hashtbl.mem f.blocks id) then err "%s references missing block bb%d" ctx id
  in
  let check_reg ctx r =
    if r < 0 || r >= f.next_reg then err "%s uses out-of-range register r%d" ctx r
  in
  let check_barrier ctx b =
    if b < 0 || b >= program.next_barrier then err "%s uses unallocated barrier b%d" ctx b
  in
  if not (Hashtbl.mem f.blocks f.entry) then err "entry block bb%d does not exist" f.entry;
  iter_blocks f (fun b ->
      let ctx = Printf.sprintf "bb%d" b.id in
      List.iter
        (fun i ->
          List.iter (check_reg ctx) (defs i);
          List.iter (check_reg ctx) (uses i);
          Option.iter (check_barrier ctx) (barrier_of i);
          match i with
          | Call { callee; args; ret = _ } -> (
            match Hashtbl.find_opt program.funcs callee with
            | None -> err "%s calls unknown function %s" ctx callee
            | Some g ->
              if List.length args <> List.length g.params then
                err "%s calls %s with %d args (expected %d)" ctx callee (List.length args)
                  (List.length g.params))
          | Bin _ | Un _ | Mov _ | Load _ | Store _ | Tid _ | Lane _ | Nthreads _ | Rand _
          | Randint _ | Join _ | Rejoin _ | Wait _ | Wait_threshold _ | Cancel _ -> ())
        b.insts;
      List.iter (check_reg ctx) (term_uses b.term);
      (match b.term with
      | Jump t -> check_block_ref ctx t
      | Br { if_true; if_false; _ } ->
        check_block_ref ctx if_true;
        check_block_ref ctx if_false
      | Ret _ -> if is_kernel then err "%s: ret in kernel (kernels must exit)" ctx
      | Exit -> if not is_kernel then err "%s: exit in device function (must ret)" ctx));
  List.iter
    (fun (name, id) ->
      if not (Hashtbl.mem f.blocks id) then err "label %s points at missing block bb%d" name id)
    f.labels;
  List.iter
    (fun h ->
      if not (Hashtbl.mem f.blocks h.region_start) then
        err "hint region start bb%d does not exist" h.region_start;
      (match h.threshold with
      | Some k when k < 0 -> err "hint threshold %d is negative" k
      | Some _ | None -> ());
      match h.target with
      | Label_target l ->
        if not (List.mem_assoc l f.labels) then err "hint targets unknown label %s" l
      | Callee_target callee ->
        if not (Hashtbl.mem program.funcs callee) then err "hint targets unknown function %s" callee)
    f.hints;
  let reach = reachable_blocks f in
  iter_blocks f (fun b ->
      if not (Hashtbl.mem reach b.id) then err "block bb%d is unreachable" b.id);
  !errors

let check_program p =
  let errors = ref [] in
  (if String.equal p.kernel "" then
     errors := { where = "program"; message = "no kernel entry designated" } :: !errors
   else if not (Hashtbl.mem p.funcs p.kernel) then
     errors :=
       { where = "program"; message = Printf.sprintf "kernel %s is not defined" p.kernel }
       :: !errors);
  (if (not (String.equal p.kernel "")) && not (List.mem p.kernel p.kernels) then
     errors :=
       { where = "program";
         message = Printf.sprintf "entry kernel %s missing from kernel list" p.kernel }
       :: !errors);
  List.iter
    (fun k ->
      if not (Hashtbl.mem p.funcs k) then
        errors :=
          { where = "program"; message = Printf.sprintf "kernel %s is not defined" k }
          :: !errors)
    p.kernels;
  let names = func_names p in
  List.iter
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      let is_kernel = List.mem name p.kernels || String.equal name p.kernel in
      errors := check_func p ~is_kernel f @ !errors)
    names;
  List.rev !errors

let check_program_exn p =
  match check_program p with
  | [] -> ()
  | errors ->
    let report =
      String.concat "\n" (List.map (fun e -> Format.asprintf "%a" pp_error e) errors)
    in
    failwith (Printf.sprintf "IR verification failed:\n%s" report)
