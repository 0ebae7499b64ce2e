module T = Ir.Types
module BA = Analysis.Barrier_analysis

type strategy = Static | Dynamic

type resolution = { in_func : string; kept : T.barrier; demoted : T.barrier; strategy : strategy }

type report = {
  resolutions : resolution list;
  unresolved : (string * T.barrier * T.barrier) list;
}

(* Insert [Cancel demoted] immediately before every wait on [kept] — a
   literal wait, or a call whose callee waits on [kept] at entry. *)
let dynamic_cancel (f : T.func) ~call_waits ~kept ~demoted =
  let waits_on_kept = function
    | T.Wait x | T.Wait_threshold (x, _) -> x = kept
    | T.Call { callee; _ } -> Analysis.Sets.Int_set.mem kept (call_waits callee)
    | T.Join _ | T.Rejoin _ | T.Cancel _ | T.Bin _ | T.Un _ | T.Mov _ | T.Load _ | T.Store _
    | T.Tid _ | T.Lane _ | T.Nthreads _ | T.Rand _ | T.Randint _ -> false
  in
  T.iter_blocks f (fun b ->
      let rec rebuild acc = function
        | [] -> List.rev acc
        | w :: rest when waits_on_kept w -> rebuild (w :: T.Cancel demoted :: acc) rest
        | i :: rest -> rebuild (i :: acc) rest
      in
      b.insts <- rebuild [] b.insts)

let run ?(model_call_waits = true) (p : T.program) ~strategy ~priority =
  let call_waits =
    if model_call_waits then BA.entry_waits p else fun _ -> Analysis.Sets.Int_set.empty
  in
  let resolutions = ref [] in
  let unresolved = ref [] in
  let names = T.func_names p in
  List.iter
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      (* Resolve one conflict, re-analyse, repeat: each resolution changes
         live ranges, which can dissolve (or expose) other conflicts. *)
      (* Dynamic resolutions do not change live ranges (Cancel is not a
         liveness event), so already-handled pairs must be skipped when
         re-analysing. *)
      let handled = Hashtbl.create 8 in
      let continue_ = ref true in
      while !continue_ do
        let ba = BA.run ~call_waits f in
        let conflicts =
          List.filter (fun pair -> not (Hashtbl.mem handled pair)) (BA.conflicts ba)
        in
        match conflicts with
        | [] -> continue_ := false
        | ((x, y) as pair) :: _ ->
          Hashtbl.replace handled pair ();
          let px = priority name x and py = priority name y in
          if px = py then unresolved := (name, x, y) :: !unresolved
          else begin
            let kept, demoted = if px > py then (x, y) else (y, x) in
            (match strategy with
            | Static -> ignore (Ir.Edit.remove_barrier_ops f demoted)
            | Dynamic -> dynamic_cancel f ~call_waits ~kept ~demoted);
            resolutions := { in_func = name; kept; demoted; strategy } :: !resolutions
          end
      done)
    names;
  { resolutions = List.rev !resolutions; unresolved = List.rev !unresolved }
