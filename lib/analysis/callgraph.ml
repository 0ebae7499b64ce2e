type t = {
  names : string list;
  callee_tbl : (string, string list) Hashtbl.t;
  caller_tbl : (string, string list) Hashtbl.t;
  sites : (string * string, int list) Hashtbl.t;
}

let build (p : Ir.Types.program) =
  let names = Ir.Types.func_names p in
  let callee_tbl = Hashtbl.create 8 in
  let caller_tbl = Hashtbl.create 8 in
  let sites = Hashtbl.create 8 in
  let add tbl key v =
    let existing = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
    if not (List.mem v existing) then Hashtbl.replace tbl key (existing @ [ v ])
  in
  List.iter
    (fun caller ->
      let f = Hashtbl.find p.funcs caller in
      Ir.Types.iter_blocks f (fun b ->
          List.iter
            (fun i ->
              match i with
              | Ir.Types.Call { callee; _ } ->
                add callee_tbl caller callee;
                add caller_tbl callee caller;
                let key = (caller, callee) in
                let existing = Option.value (Hashtbl.find_opt sites key) ~default:[] in
                if not (List.mem b.Ir.Types.id existing) then
                  Hashtbl.replace sites key (existing @ [ b.Ir.Types.id ])
              | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _
              | Ir.Types.Store _ | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _
              | Ir.Types.Rand _ | Ir.Types.Randint _ | Ir.Types.Join _ | Ir.Types.Rejoin _
              | Ir.Types.Wait _ | Ir.Types.Wait_threshold _ | Ir.Types.Cancel _ -> ())
            b.insts))
    names;
  { names; callee_tbl; caller_tbl; sites }

let callees t name = Option.value (Hashtbl.find_opt t.callee_tbl name) ~default:[]
let callers t name = Option.value (Hashtbl.find_opt t.caller_tbl name) ~default:[]
let call_sites t ~caller ~callee = Option.value (Hashtbl.find_opt t.sites (caller, callee)) ~default:[]

let is_recursive t name =
  (* DFS from each callee of [name]; recursive iff [name] is reachable. *)
  let seen = Hashtbl.create 8 in
  let rec reaches target id =
    if String.equal id target then true
    else if Hashtbl.mem seen id then false
    else begin
      Hashtbl.replace seen id ();
      List.exists (reaches target) (callees t id)
    end
  in
  List.exists (reaches name) (callees t name)

let bottom_up t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      List.iter visit (callees t name);
      order := name :: !order
    end
  in
  List.iter visit t.names;
  List.rev !order

let pp ppf t =
  List.iter
    (fun n -> Format.fprintf ppf "%s -> [%s]@." n (String.concat "; " (callees t n)))
    t.names
