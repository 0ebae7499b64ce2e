module T = Ir.Types

type mode =
  | No_sync
  | Baseline
  | Speculative of Passes.Deconflict.strategy
  | Automatic of {
      params : Passes.Auto_detect.params;
      strategy : Passes.Deconflict.strategy;
      profile : Analysis.Profile.t option;
    }

type threshold_override = Keep | Set of int | Unset

type repair_mode = No_repair | Repair of { dry_run : bool; max_edits : int }

type options = {
  mode : mode;
  coarsen : int option;
  threshold : threshold_override;
  cleanup : bool;
  deconflict : bool;
  lint : bool;
  race : bool;
  repair : repair_mode;
}

let baseline =
  { mode = Baseline; coarsen = None; threshold = Keep; cleanup = true; deconflict = true;
    lint = true; race = true; repair = No_repair }

let speculative = { baseline with mode = Speculative Passes.Deconflict.Dynamic }

let automatic =
  { baseline with
    mode =
      Automatic
        { params = Passes.Auto_detect.default_params;
          strategy = Passes.Deconflict.Dynamic;
          profile = None } }

let modes =
  [
    ("baseline", Baseline);
    ("none", No_sync);
    ("specrecon", speculative.mode);
    ("specrecon-static", Speculative Passes.Deconflict.Static);
    ("auto", automatic.mode);
  ]

let threshold_of_option = function
  | None -> Keep
  | Some k when k < 0 -> Unset
  | Some k -> Set k

type repair_report = {
  pre_findings : Analysis.Barrier_safety.finding list;
  outcome : Analysis.Barrier_repair.outcome;
  before : Ir.Linear.t;
}

type compiled = {
  options : options;
  program : T.program;
  linear : Ir.Linear.t;
  decoded : Ir.Decoded.t;
  pdom_barriers : (string * int * T.barrier) list;
  applied : Passes.Specrecon.applied list;
  interproc_applied : Passes.Interproc.applied list;
  deconflict_report : Passes.Deconflict.report option;
  candidates : Passes.Auto_detect.candidate list;
  lint_findings : Analysis.Barrier_safety.finding list;
  race_findings : Analysis.Race_safety.finding list;
  repair_report : repair_report option;
}

type observer = {
  stage : 'a. string -> (unit -> 'a) -> 'a;
  after : string -> T.program -> unit;
}

let silent = { stage = (fun _ f -> f ()); after = (fun _ _ -> ()) }

(* Provenance for srlint's dominance rule: every speculative barrier the
   passes placed, with the block holding its join (BSSY). *)
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
        { Analysis.Barrier_safety.sfunc = a.in_func; slot = a.barrier; join_block = a.region_start })
      interproc

let override_thresholds threshold (p : T.program) =
  let set k (h : T.predict_hint) = { h with threshold = k } in
  let apply k = Hashtbl.iter (fun _ (f : T.func) -> f.hints <- List.map (set k) f.hints) p.funcs in
  match threshold with Keep -> () | Set k -> apply (Some k) | Unset -> apply None

let strip_hints (p : T.program) =
  Hashtbl.iter (fun _ (f : T.func) -> f.hints <- []) p.funcs

(* Barrier priority for deconfliction: user hints beat region barriers
   beat compiler PDOM barriers (§4.1). *)
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

(* Lowering through cleanup: every stage that places barriers. *)
let place observe options ast =
  let program = observe.stage "lower" (fun () -> Front.Lower.lower ast) in
  let pass name f =
    let result = observe.stage name f in
    observe.after name program;
    result
  in
  observe.after "lower" program;
  let candidates =
    pass "detect" (fun () ->
        override_thresholds options.threshold program;
        match options.mode with
        | No_sync | Baseline ->
          strip_hints program;
          []
        | Speculative _ -> []
        | Automatic { params; profile; _ } ->
          strip_hints program;
          let candidates = Passes.Auto_detect.detect ?profile params program in
          Passes.Auto_detect.install program candidates;
          candidates)
  in
  let pdom_sync () =
    pass "pdom_sync" (fun () -> Passes.Pdom_sync.run program (Analysis.Divergence.run program))
  in
  let pdom, applied, interproc, deconflict_report =
    match options.mode with
    | No_sync -> ([], [], [], None)
    | Baseline -> (pdom_sync (), [], [], None)
    | Speculative strategy | Automatic { strategy; _ } ->
      let applied = pass "specrecon" (fun () -> Passes.Specrecon.run program) in
      let interproc = pass "interproc" (fun () -> Passes.Interproc.run program) in
      let pdom = pdom_sync () in
      let report =
        if not options.deconflict then None
        else
          Some
            (pass "deconflict" (fun () ->
                 let priority = make_priority ~applied ~interproc ~pdom in
                 Passes.Deconflict.run program ~strategy ~priority))
      in
      (pdom, applied, interproc, report)
  in
  if options.cleanup then ignore (pass "cleanup" (fun () -> Passes.Cleanup.run program));
  (program, pdom, applied, interproc, deconflict_report, candidates)

(* The race differential needs the PDOM placement of the same (already
   coarsened) source: the baseline preset's placement stages, unobserved. *)
let pdom_race_findings ast =
  let program, _, _, _, _, _ = place silent baseline ast in
  Analysis.Race_safety.check program

(* Opt-in repair ([srcc --fix]): synthesize a minimal edit sequence whose
   re-check comes back empty. An accepted repair replaces the program
   and clears the findings; a dry run or an unrepairable program leaves
   both untouched for the lint gate. *)
let repair observe ~speculative ~dry_run ~max_edits program findings =
  let outcome, before =
    observe.stage "repair" (fun () ->
        let before = Ir.Linear.linearize program in
        match findings with
        | [] -> (Analysis.Barrier_repair.Clean, before)
        | _ -> (Analysis.Barrier_repair.repair ~speculative ~max_edits program, before))
  in
  let report = Some { pre_findings = findings; outcome; before } in
  match outcome with
  | Analysis.Barrier_repair.Repaired { program; _ } when not dry_run ->
    observe.after "repair" program;
    (program, [], report)
  | _ -> (program, findings, report)

let lint_error findings repair_report =
  let unrepairable =
    match repair_report with
    | Some { outcome = Analysis.Barrier_repair.Unrepairable { blocking; explored }; _ } ->
      Printf.sprintf "\nsrfix: unrepairable after exploring %d candidate(s); blocked by: %s"
        explored
        (Format.asprintf "%a" Analysis.Barrier_safety.pp_machine blocking)
    | _ -> ""
  in
  Printf.sprintf "srlint: %d barrier-safety finding(s):\n%s%s" (List.length findings)
    (Analysis.Barrier_safety.render findings) unrepairable

let compile_ast ?(observe = silent) options ast =
  let ast =
    match options.coarsen with
    | Some factor -> observe.stage "coarsen" (fun () -> Front.Coarsen.apply ast ~factor)
    | None -> ast
  in
  let program, pdom_barriers, applied, interproc_applied, deconflict_report, candidates =
    place observe options ast
  in
  observe.stage "verify" (fun () -> Ir.Verifier.check_program_exn program);
  (* Mandatory barrier-safety stage: a finding is a compiler bug (a
     placement the deconfliction rules should have ruled out), so it is a
     hard error unless the caller asked for the findings as data with
     lint=false (srcc --lint and --no-lint). *)
  let program, lint_findings, repair_report =
    observe.stage "lint" (fun () ->
        let speculative = speculative_meta ~applied ~interproc:interproc_applied in
        let findings = Analysis.Barrier_safety.check ~speculative program in
        let program, findings, report =
          match options.repair with
          | No_repair -> (program, findings, None)
          | Repair { dry_run; max_edits } ->
            repair observe ~speculative ~dry_run ~max_edits program findings
        in
        if options.lint && findings <> [] then failwith (lint_error findings report);
        (program, findings, report))
  in
  (* Race stage ([srcc --race]): unlike lint, findings are reported, not
     gated — a data race can be source-level (present under every
     placement), so the caller decides severity. Under a speculative
     placement, findings absent from the PDOM placement of the same
     source are upgraded to [race-introduced]: the transform broke an
     ordering PDOM had. The PDOM placement is rebuilt only when there is
     something to diff. *)
  let race_findings =
    if not options.race then []
    else
      observe.stage "race" (fun () ->
          let findings = Analysis.Race_safety.check program in
          match (options.mode, findings) with
          | (No_sync | Baseline), _ | _, [] -> findings
          | (Speculative _ | Automatic _), _ ->
            let baseline = observe.stage "race.rebuild" (fun () -> pdom_race_findings ast) in
            Analysis.Race_safety.diff ~baseline findings)
  in
  let linear = observe.stage "linearize" (fun () -> Ir.Linear.linearize program) in
  let decoded = observe.stage "decode" (fun () -> Ir.Decoded.decode linear) in
  {
    options;
    program;
    linear;
    decoded;
    pdom_barriers;
    applied;
    interproc_applied;
    deconflict_report;
    candidates;
    lint_findings;
    race_findings;
    repair_report;
  }

let compile ?(observe = silent) options ~source =
  compile_ast ~observe options (observe.stage "parse" (fun () -> Front.Parser.parse_string source))
