(* A bench-local copy of Core.Compile.compile_ast's stage sequence, built
   only from public calls, with one span around each stage.

   The copy exists so the traced run can time every stage without
   touching lib/. It must stay byte-for-byte faithful: [drift] compares
   its output with the real Core.Compile.compile, and the traced run
   fails on any difference. The stage spans are the per-layer compile
   metrics; they tile the copy completely, so their sum is the copy's
   compile time.

   Stage names, in order:
     front.parse  front.coarsen  front.lower
     passes.detect      threshold override, hint stripping, Auto_detect
     passes.sync        Specrecon, Interproc, Divergence, Pdom_sync
     passes.deconflict  passes.cleanup
     ir.verify
     analysis.lint      Barrier_safety.check and the lint gate
     analysis.race      Race_safety.check and diff; its PDOM rebuild is
                        the child span analysis.race.rebuild
     ir.linearize  ir.decode *)

module T = Ir.Types
module C = Core.Compile

let names =
  [
    "front.parse";
    "front.coarsen";
    "front.lower";
    "passes.detect";
    "passes.sync";
    "passes.deconflict";
    "passes.cleanup";
    "ir.verify";
    "analysis.lint";
    "analysis.race";
    "ir.linearize";
    "ir.decode";
  ]

let rebuild = "analysis.race.rebuild"

let strip_hints (p : T.program) = Hashtbl.iter (fun _ (f : T.func) -> f.hints <- []) p.funcs

let override_thresholds threshold (p : T.program) =
  let set k (h : T.predict_hint) = { h with threshold = k } in
  let apply k = Hashtbl.iter (fun _ (f : T.func) -> f.hints <- List.map (set k) f.hints) p.funcs in
  match threshold with
  | C.Keep -> ()
  | C.Set k -> apply (Some k)
  | C.Unset -> apply None

let make_priority ~applied ~interproc ~pdom =
  let rank = Hashtbl.create 16 in
  List.iter
    (fun (a : Passes.Specrecon.applied) ->
      Hashtbl.replace rank (a.in_func, a.user_barrier) 3;
      Option.iter (fun b -> Hashtbl.replace rank (a.in_func, b) 2) a.region_barrier)
    applied;
  List.iter
    (fun (a : Passes.Interproc.applied) -> Hashtbl.replace rank (a.in_func, a.barrier) 3)
    interproc;
  List.iter (fun (fname, _, b) -> Hashtbl.replace rank (fname, b) 1) pdom;
  fun fname b -> Option.value (Hashtbl.find_opt rank (fname, b)) ~default:1

let speculative_meta ~applied ~interproc =
  List.map
    (fun (a : Passes.Specrecon.applied) ->
      {
        Analysis.Barrier_safety.sfunc = a.in_func;
        slot = a.user_barrier;
        join_block = a.region_start;
      })
    applied
  @ List.map
      (fun (a : Passes.Interproc.applied) ->
        {
          Analysis.Barrier_safety.sfunc = a.in_func;
          slot = a.barrier;
          join_block = a.region_start;
        })
      interproc

let pdom_race_findings ast =
  let p = Front.Lower.lower ast in
  strip_hints p;
  ignore (Passes.Pdom_sync.run p (Analysis.Divergence.run p));
  ignore (Passes.Cleanup.run p);
  Analysis.Race_safety.check p

let compile sp (options : C.options) ~source =
  if options.C.repair <> C.No_repair then invalid_arg "Stages.compile: repair is not staged";
  let stage name f = Spans.record sp name f in
  let ast = stage "front.parse" (fun () -> Front.Parser.parse_string source) in
  let ast =
    stage "front.coarsen" (fun () ->
        match options.C.coarsen with Some factor -> Front.Coarsen.apply ast ~factor | None -> ast)
  in
  let program = stage "front.lower" (fun () -> Front.Lower.lower ast) in
  let candidates =
    stage "passes.detect" (fun () ->
        override_thresholds options.C.threshold program;
        match options.C.mode with
        | C.No_sync | C.Baseline ->
          strip_hints program;
          []
        | C.Speculative _ -> []
        | C.Automatic { params; profile; _ } ->
          strip_hints program;
          let candidates = Passes.Auto_detect.detect ?profile params program in
          Passes.Auto_detect.install program candidates;
          candidates)
  in
  let pdom, applied, interproc =
    stage "passes.sync" (fun () ->
        match options.C.mode with
        | C.No_sync -> ([], [], [])
        | C.Baseline -> (Passes.Pdom_sync.run program (Analysis.Divergence.run program), [], [])
        | C.Speculative _ | C.Automatic _ ->
          let applied = Passes.Specrecon.run program in
          let interproc = Passes.Interproc.run program in
          let pdom = Passes.Pdom_sync.run program (Analysis.Divergence.run program) in
          (pdom, applied, interproc))
  in
  let deconflict_report =
    stage "passes.deconflict" (fun () ->
        match options.C.mode with
        | (C.Speculative strategy | C.Automatic { strategy; _ }) when options.C.deconflict ->
          let priority = make_priority ~applied ~interproc ~pdom in
          Some (Passes.Deconflict.run program ~strategy ~priority)
        | _ -> None)
  in
  stage "passes.cleanup" (fun () -> if options.C.cleanup then ignore (Passes.Cleanup.run program));
  stage "ir.verify" (fun () -> Ir.Verifier.check_program_exn program);
  let lint_findings =
    stage "analysis.lint" (fun () ->
        let speculative = speculative_meta ~applied ~interproc in
        match Analysis.Barrier_safety.check ~speculative program with
        | [] -> []
        | fs when options.C.lint ->
          failwith
            (Printf.sprintf "srlint: %d barrier-safety finding(s):\n%s" (List.length fs)
               (Analysis.Barrier_safety.render fs))
        | fs -> fs)
  in
  let race_findings =
    stage "analysis.race" (fun () ->
        if not options.C.race then []
        else
          let findings = Analysis.Race_safety.check program in
          match (options.C.mode, findings) with
          | (C.No_sync | C.Baseline), _ | _, [] -> findings
          | (C.Speculative _ | C.Automatic _), _ ->
            let baseline = stage rebuild (fun () -> pdom_race_findings ast) in
            Analysis.Race_safety.diff ~baseline findings)
  in
  let linear = stage "ir.linearize" (fun () -> Ir.Linear.linearize program) in
  let decoded = stage "ir.decode" (fun () -> Ir.Decoded.decode linear) in
  {
    C.options;
    program;
    linear;
    decoded;
    pdom_barriers = pdom;
    applied;
    interproc_applied = interproc;
    deconflict_report;
    candidates;
    lint_findings;
    race_findings;
    repair_report = None;
  }

(* [drift ~copy ~real] — [None] when the copy's artifact matches the real
   compile's: same decoded listing, same lint and race finding counts. *)
let drift ~(copy : C.compiled) ~(real : C.compiled) =
  let listing (c : C.compiled) = Format.asprintf "%a" Ir.Decoded.pp c.C.decoded in
  let counts (c : C.compiled) = (List.length c.C.lint_findings, List.length c.C.race_findings) in
  if counts copy <> counts real then Some "lint/race finding counts differ"
  else if not (String.equal (listing copy) (listing real)) then Some "decoded listings differ"
  else None
