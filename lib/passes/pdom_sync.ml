module T = Ir.Types

let run (p : T.program) divergence =
  let inserted = ref [] in
  let names = T.func_names p in
  List.iter
    (fun name ->
      let f = Hashtbl.find p.funcs name in
      let g = Analysis.Cfg.of_func f in
      let pdom = Analysis.Dom.Post.compute g in
      let branches = Analysis.Divergence.divergent_branches divergence ~func:name in
      (* Process in reverse post order so that at a shared post-dominator
         the Wait of an inner (later-processed) branch is prepended in
         front of the outer one's; threads then clear inner barriers
         first. *)
      List.iter
        (fun bid ->
          if Analysis.Sets.Int_set.mem bid branches then
            match Analysis.Dom.Post.ipdom pdom bid with
            | Some d when d <> Analysis.Cfg.synthetic_exit ->
              let b = Ir.Builder.fresh_barrier p in
              Ir.Builder.append f bid (T.Join b);
              (* Waits go after any CancelBarrier already at the
                 post-dominator: a thread must withdraw from barriers it
                 is abandoning before it blocks here, or the abandoned
                 barrier can never fire. *)
              Ir.Edit.insert_after_leading f d
                ~skip:(fun i -> match i with T.Cancel _ -> true | _ -> false)
                (T.Wait b);
              inserted := (name, bid, b) :: !inserted
            | Some _ | None -> ())
        (Analysis.Cfg.rpo g))
    names;
  List.rev !inserted
