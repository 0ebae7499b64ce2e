module T = Ir.Types
module C = Core.Compile
module Sm = Support.Splitmix
module Sp = Serve.Protocol

type kind =
  | Round_trip
  | Stage_failure
  | Deadlock
  | Runtime_error
  | Result_divergence
  | Lint_unsound
  | Lint_spurious
  | Chaos_divergence
  | Spurious_yield
  | Race_unsound
  | Race_spurious
  | Serve_mismatch
  | Serve_chaos
  | Serve_persist
  | Repair_unsound
  | Repair_incomplete

let kind_name = function
  | Round_trip -> "round-trip"
  | Stage_failure -> "stage-failure"
  | Deadlock -> "deadlock"
  | Runtime_error -> "runtime-error"
  | Result_divergence -> "result-divergence"
  | Lint_unsound -> "lint-unsound"
  | Lint_spurious -> "lint-spurious"
  | Chaos_divergence -> "chaos-divergence"
  | Spurious_yield -> "spurious-yield"
  | Race_unsound -> "race-unsound"
  | Race_spurious -> "race-spurious"
  | Serve_mismatch -> "serve-mismatch"
  | Serve_chaos -> "serve-chaos"
  | Serve_persist -> "serve-persist"
  | Repair_unsound -> "repair-unsound"
  | Repair_incomplete -> "repair-incomplete"

type violation = { kind : kind; detail : string }

type verdict = Ok_run | Limit of string | Violation of violation

let pp_verdict ppf = function
  | Ok_run -> Format.pp_print_string ppf "ok"
  | Limit msg -> Format.fprintf ppf "limit (%s)" msg
  | Violation { kind; detail } -> Format.fprintf ppf "VIOLATION %s: %s" (kind_name kind) detail

let policies = List.map snd Simt.Config.policies

let base_config =
  { Simt.Config.default with Simt.Config.n_warps = Gen.n_threads / 32; seed = 11 }

(* The input arrays are filled by global name, so the pattern depends
   only on the source program (the layout is fixed at lowering, before
   any mode-specific pass runs). The definition lives with the server so
   the wire protocol's [init=data] and this oracle share it exactly. *)
let init_memory = Serve.Server.data_init

(* Bit-exact memory snapshot: float cells compare by IEEE bit pattern
   (works for NaN payloads too), tagged so an int and a float holding the
   same bits cannot alias. *)
let snapshot mem =
  let n = Simt.Memsys.size mem in
  Array.map
    (function
      | T.I i -> (false, i)
      | T.F f -> (true, Int64.to_int (Int64.bits_of_float f)))
    (Simt.Memsys.dump mem ~base:0 ~len:n)

let first_diff a b =
  let rec go i =
    if i >= Array.length a || i >= Array.length b then None
    else if a.(i) <> b.(i) then Some i
    else go (i + 1)
  in
  if Array.length a <> Array.length b then Some (min (Array.length a) (Array.length b)) else go 0

exception Stop of verdict

let violate kind fmt =
  Printf.ksprintf (fun detail -> raise (Stop (Violation { kind; detail }))) fmt

let show pp x = Format.asprintf "%a" pp x

let round_trip ast =
  let src = Front.Pretty.to_string ast in
  let pos p = Format.asprintf "%a" Front.Ast.pp_pos p in
  match Front.Parser.parse_string src with
  | reparsed ->
    if not (Front.Pretty.equal_program ast reparsed) then
      violate Round_trip "re-parsed program differs structurally"
  | exception Front.Parser.Parse_error (p, msg) ->
    violate Round_trip "pretty output does not parse: %s: %s" (pos p) msg
  | exception Front.Lexer.Lex_error (p, msg) ->
    violate Round_trip "pretty output does not lex: %s: %s" (pos p) msg

(* Stage health: a stage that raises, or leaves the program
   verifier-unclean, is a stage failure named by its stage. *)
let stage_health =
  {
    C.stage =
      (fun name f ->
        match f () with
        | v -> v
        | exception Failure msg -> violate Stage_failure "%s: %s" name msg
        | exception Front.Lower.Lower_error (p, msg) ->
          violate Stage_failure "%s: %s" name (Format.asprintf "%a: %s" Front.Ast.pp_pos p msg));
    after =
      (fun name program ->
        match Ir.Verifier.check_program program with
        | [] -> ()
        | errors ->
          violate Stage_failure "verify:%s: %s" name
            (String.concat "; " (List.map (show Ir.Verifier.pp_error) errors)));
  }

(* Both builds, PDOM baseline first: the order every tier reports in.
   With lint off, findings come back as data for the oracles to hold
   against the simulator. *)
let compile_both ast =
  List.map
    (fun (name, options) ->
      (name, C.compile_ast ~observe:stage_health { options with C.lint = false } ast))
    [ ("baseline", C.baseline); ("specrecon", C.speculative) ]

(* ------------------------------------------------------------------ *)
(* The run matrix                                                      *)
(* ------------------------------------------------------------------ *)

(* Only parameterless kernels can run under the matrix (there is nothing
   to pass for the others); the generator emits exactly those. *)
let runnable_kernels (linear : Ir.Linear.t) =
  List.filter (fun (kf : Ir.Linear.finfo) -> kf.Ir.Linear.arity = 0) linear.Ir.Linear.kernels

(* One run: a build (the program, for the input fill, and its decoded
   code), a machine config, an entry kernel, and the label a verdict
   names the run by. *)
type cell = {
  program : T.program;
  decoded : Ir.Decoded.t;
  config : Simt.Config.t;
  kernel : string;
  where : string;
}

(* The one cell enumerator: every runnable kernel of the build under
   each [(config, where)] row, row-major — so a tier's first failure is
   the same cell on every replay. [where] labels a cell from its kernel. *)
let cells program (decoded : Ir.Decoded.t) rows =
  List.concat_map
    (fun (config, where) ->
      List.map
        (fun (kf : Ir.Linear.finfo) ->
          let kernel = kf.Ir.Linear.fname in
          { program; decoded; config; kernel; where = where kernel })
        (runnable_kernels decoded.Ir.Decoded.linear))
    rows

(* One row per scheduler policy; [where policy kernel] labels a cell. *)
let by_policy ~max_issues where =
  List.map
    (fun policy ->
      ( { base_config with Simt.Config.policy; max_issues },
        where (Simt.Config.policy_name policy) ))
    policies

type failure = Deadlocked of string | Crashed of string

(* The one run classifier. Budget exhaustion is never a violation: it is
   the fuzzer's liveness cap, and it ends the whole check as [Limit] in
   every tier. Deadlocks and runtime errors go back to the tier, whose
   predicates decide what they mean. *)
let run ?faults ?race cell =
  match
    Simt.Interp.run ?faults ?race cell.config cell.decoded ~entry:cell.kernel ~args:[]
      ~init_memory:(init_memory cell.program)
  with
  | r -> Ok r
  | exception Simt.Interp.Deadlock msg -> Error (Deadlocked msg)
  | exception Simt.Interp.Runtime_error msg -> Error (Crashed msg)
  | exception Simt.Interp.Out_of_budget (_, msg) ->
    raise (Stop (Limit (Printf.sprintf "%s: %s" cell.where msg)))

(* What the tiers compare between two runs of one kernel: the memory
   image bit for bit, and how many threads finished. *)
type image = { snap : (bool * int) array; finished : int }

let image (r : Simt.Interp.result) =
  { snap = snapshot r.Simt.Interp.memory;
    finished = r.Simt.Interp.metrics.Simt.Metrics.threads_finished }

type difference = Finished | Address of int

let difference want got =
  if got.finished <> want.finished then Some Finished
  else Option.map (fun a -> Address a) (first_diff want.snap got.snap)

(* ------------------------------------------------------------------ *)
(* Standard tier                                                       *)
(* ------------------------------------------------------------------ *)

(* A failed run under the standard contracts: any deadlock is a
   violation, and one srlint did not predict is also a soundness hole in
   the checker. *)
let standard_failure (s : C.compiled) where = function
  | Deadlocked msg when s.C.lint_findings = [] ->
    violate Lint_unsound "%s: simulator deadlocked but srlint was clean: %s" where msg
  | Deadlocked msg -> violate Deadlock "%s: %s" where msg
  | Crashed msg -> violate Runtime_error "%s: %s" where msg

(* Both builds, all three schedulers, every runnable kernel, each run
   under the shadow-memory race logger. A dynamic race on a build whose
   static pass came back empty is race-unsound. The first run of each
   kernel (baseline, most-threads) is its reference image, and every
   later cell must match it. Returns the references and whether any
   cell realized a race. *)
let standard_matrix ~max_issues staged =
  let reference = Hashtbl.create 4 and raced = ref false in
  List.iter
    (fun (mode, (s : C.compiled)) ->
      List.iter
        (fun cell ->
          let race =
            Simt.Race_log.create ~size:s.C.program.T.mem_size
              ~n_warps:cell.config.Simt.Config.n_warps ()
          in
          match run ~race cell with
          | Error failure -> standard_failure s cell.where failure
          | Ok r -> (
            if Simt.Race_log.total race > 0 then begin
              raced := true;
              if s.C.race_findings = [] then
                violate Race_unsound
                  "%s: shadow logger observed %d race(s) but srrace was clean; first: %s"
                  cell.where (Simt.Race_log.total race)
                  (match Simt.Race_log.events race with
                  | ev :: _ -> show Simt.Race_log.pp_event ev
                  | [] -> "(no retained events)")
            end;
            let got = image r in
            match Hashtbl.find_opt reference cell.kernel with
            | None -> Hashtbl.replace reference cell.kernel (cell.where, got)
            | Some (ref_where, want) -> (
              match difference want got with
              | None -> ()
              | Some Finished ->
                violate Result_divergence "%s finished %d threads, %s finished %d" ref_where
                  want.finished cell.where got.finished
              | Some (Address addr) ->
                violate Result_divergence "memory differs between %s and %s at address %d"
                  ref_where cell.where addr)))
        (cells s.C.program s.C.decoded (by_policy ~max_issues (Printf.sprintf "%s/%s/%s" mode))))
    staged;
  (reference, !raced)

(* Precision, after the whole matrix ran without deadlock under every
   scheduler: any remaining srlint finding is a false alarm, and so is an
   srrace finding when no cell realized a race. *)
let spurious_findings staged ~raced =
  (match List.find_opt (fun (_, (s : C.compiled)) -> s.C.lint_findings <> []) staged with
  | Some (mode, s) ->
    violate Lint_spurious "%s ran deadlock-free everywhere, yet: %s" mode
      (show Analysis.Barrier_safety.pp_machine (List.hd s.C.lint_findings))
  | None -> ());
  if not raced then
    match List.find_opt (fun (_, (s : C.compiled)) -> s.C.race_findings <> []) staged with
    | Some (mode, s) ->
      violate Race_spurious "no cell of the matrix realized a race, yet %s: %s" mode
        (show Analysis.Race_safety.pp_machine (List.hd s.C.race_findings))
    | None -> ()

(* Serve tier: the same program goes through the srserved engine — a
   cold pass (empty cache, every kernel's first sight is a miss) then a
   warm pass (the artifact is cached, every launch must hit) — and every
   response line must be byte-identical to one rebuilt from the one-shot
   Core.Compile + Core.Runner stages: same metrics, same memory digest,
   and cache counters proving the warm pass really served from cache.
   This catches anything the service layer could add on top of the
   pipeline it wraps: key collisions handing back the wrong artifact,
   artifacts mutated by a previous launch, counter nondeterminism,
   response misordering. *)
let serve_matrix ~max_issues ast (specrecon : C.compiled) =
  let pass name =
    cells specrecon.C.program specrecon.C.decoded
      [ ({ base_config with Simt.Config.max_issues }, Printf.sprintf "%s pass, kernel %s" name) ]
  in
  match pass "cold" with
  | [] -> ()
  | cold ->
    let source = Front.Pretty.to_string ast in
    let server = Serve.Server.create ~cache_capacity:8 ~max_issues () in
    let compiled = try Ok (C.compile C.speculative ~source) with exn -> Error exn in
    (* Mirror of the server's counter discipline: the artifact is keyed
       by source + compile fields only, so the program's first request is
       the one miss and every later request (any kernel, either pass) a
       hit. Counters advance at cache-resolution time, before the launch
       — a launch failure still consumed its hit or miss. *)
    let hits = ref 0 and misses = ref 0 in
    let expected rid cell =
      let oneshot () =
        match compiled with
        | Error exn -> raise exn
        | Ok artifact ->
          let cache =
            if !misses = 0 then begin misses := 1; Sp.Miss end
            else begin incr hits; Sp.Hit end
          in
          let outcome =
            Core.Runner.launch ~config:cell.config ~init:init_memory ~entry:cell.kernel artifact
              ~args:[]
          in
          let m = outcome.Core.Runner.metrics in
          Sp.Ok_run
            {
              Sp.rid;
              cache;
              hits = !hits;
              misses = !misses;
              evictions = 0;
              cycles = m.Simt.Metrics.cycles;
              issues = m.Simt.Metrics.issues;
              active = m.Simt.Metrics.active_sum;
              finished = m.Simt.Metrics.threads_finished;
              digest = Simt.Memsys.digest outcome.Core.Runner.memory;
            }
      in
      match oneshot () with
      | resp -> resp
      | exception exn -> (
        match Core.Cli.classify exn with
        | Some outcome ->
          let kind, msg = Serve.Server.outcome_kind_and_message outcome in
          Sp.Error { rid; code = Core.Cli.exit_code outcome; kind; msg }
        | None -> raise exn)
    in
    let n = List.length cold in
    List.iteri
      (fun pass batch ->
        let reqs = List.mapi (fun i cell -> ((pass * n) + i, cell)) batch in
        let actual =
          Serve.Server.submit server
            (List.map
               (fun (rid, cell) ->
                 Sp.Run
                   (Sp.make_request ~id:rid ~warps:cell.config.Simt.Config.n_warps
                      ~seed:cell.config.Simt.Config.seed ~entry:cell.kernel ~init:"data"
                      ~source ()))
               reqs)
        in
        List.iter2
          (fun (rid, cell) got ->
            let got = Sp.print_response got and want = Sp.print_response (expected rid cell) in
            if not (String.equal got want) then
              violate Serve_mismatch
                "%s: served response differs from the one-shot pipeline\n\
                \  served:   %s\n\
                \  one-shot: %s"
                cell.where got want)
          reqs actual)
      [ cold; pass "warm" ]

(* Chaos tier: a lint-clean program already proven mode- and
   schedule-independent by the main matrix must ALSO survive fault
   injection — scheduler perturbations, memory-latency spikes, spurious
   releases, forced stalls — with yield recovery on, and still produce
   memory bit-identical to the unfaulted PDOM baseline: the standard
   matrix's reference image for the kernel. Generated programs are
   schedule-independent by construction and spurious releases only
   shrink participation, so any divergence is a simulator bug; and a
   checker-clean program can never truly stall, so any yield the
   watchdog fires is a false stall detection ({!Spurious_yield}) — the
   runtime-side cross-validation of srlint. *)
let chaos_matrix ~max_issues ~chaos ~chaos_seed ~reference (specrecon : C.compiled) =
  for plan = 0 to chaos - 1 do
    let policy = List.nth policies (plan mod List.length policies) in
    let config =
      { base_config with
        Simt.Config.policy;
        max_issues;
        yield_on_stall = true;
        yield_policy = Simt.Config.Oldest_arrival }
    in
    List.iteri
      (fun ki cell ->
        let fault_seed = Sm.int (Sm.of_ints chaos_seed plan ki) 0x3fffffff in
        let faults = Simt.Faults.create ~seed:fault_seed in
        (* The minimal sub-trace still provoking [pred]: what the
           violation detail prints, so a repro starts from the fewest
           faults that matter (each candidate costs a simulation, hence
           the small budget). *)
        let minimal_trace pred =
          Simt.Faults.trace_to_string
            (Shrink.shrink_trace ~budget:48 (Simt.Faults.events faults) ~still_failing:(fun evs ->
                 match run ~faults:(Simt.Faults.replay evs) cell with
                 | Ok r -> pred r
                 | Error _ | (exception Stop _) -> false))
        in
        let r =
          match run ~faults cell with
          | Ok r -> r
          | Error (Deadlocked msg) ->
            violate Chaos_divergence "%s: deadlock despite yield recovery: %s" cell.where msg
          | Error (Crashed msg) ->
            violate Chaos_divergence "%s: runtime error under faults: %s" cell.where msg
        in
        let yields = r.Simt.Interp.metrics.Simt.Metrics.yields in
        if yields > 0 then
          violate Spurious_yield
            "%s: %d yield(s) on a checker-clean program (fault seed %d, minimal trace:\n%s)"
            cell.where yields fault_seed
            (minimal_trace (fun r -> r.Simt.Interp.metrics.Simt.Metrics.yields > 0));
        let _, want = Hashtbl.find reference cell.kernel in
        let got = image r in
        match difference want got with
        | None -> ()
        | Some Finished ->
          violate Chaos_divergence
            "%s: finished %d threads, unfaulted baseline finished %d (fault seed %d)" cell.where
            got.finished want.finished fault_seed
        | Some (Address addr) ->
          violate Chaos_divergence
            "%s: memory differs from unfaulted baseline at address %d (fault seed %d, minimal \
             trace:\n\
             %s)"
            cell.where addr fault_seed
            (minimal_trace (fun r -> difference want (image r) <> None)))
      (cells specrecon.C.program specrecon.C.decoded
         [
           ( config,
             Printf.sprintf "chaos plan %d (%s) kernel %s" plan (Simt.Config.policy_name policy)
           );
         ])
  done

let guard f = try f () with Stop v -> v

let check ?(max_issues = 1_500_000) ?(chaos = 0) ?(chaos_seed = 0xc4a05) ast =
  guard (fun () ->
      round_trip ast;
      let staged = compile_both ast in
      let reference, raced = standard_matrix ~max_issues staged in
      spurious_findings staged ~raced;
      let specrecon = List.assoc "specrecon" staged in
      serve_matrix ~max_issues ast specrecon;
      (* Only lint-clean programs reach the chaos tier, so the
         zero-yields contract applies unconditionally. *)
      if chaos > 0 then chaos_matrix ~max_issues ~chaos ~chaos_seed ~reference specrecon;
      Ok_run)

(* ------------------------------------------------------------------ *)
(* Repair tier                                                         *)
(* ------------------------------------------------------------------ *)

(* The repair oracles: manufacture misplaced variants of a clean
   speculative compilation with {!Misplace}, then hold
   Analysis.Barrier_repair to its contract on each flagged variant.

   - repair-incomplete: every finding set must produce an outcome — a
     repair or an explicit Unrepairable naming the blocking finding; a
     "repaired" program srlint still flags is the repair pass lying
     about its own acceptance condition.
   - repair-unsound: an accepted repair must also hold dynamically —
     verifier-clean, deadlock-free without yield under all three
     schedulers, and memory bit-identical to the unfaulted PDOM
     baseline. Generated programs are schedule-independent by
     construction, so any divergence is introduced by the edits. *)
let mut_seed = 0xf1c5

let repair_variant ~max_issues ~speculative ~reference ~where pre_findings mutant =
  match Analysis.Barrier_repair.repair ~speculative mutant with
  | Analysis.Barrier_repair.Clean ->
    violate Repair_incomplete
      "%s: repair claims the program is already clean, but srlint reports %d finding(s): %s"
      where (List.length pre_findings)
      (show Analysis.Barrier_safety.pp_machine (List.hd pre_findings))
  | Analysis.Barrier_repair.Unrepairable _ ->
    (* Acceptable outcome: the contract only requires the blocking
       finding to be named, which the constructor carries by type. *)
    ()
  | Analysis.Barrier_repair.Repaired { program = repaired; edits; _ } ->
    let plan = Analysis.Barrier_repair.render_edits edits in
    (match Analysis.Barrier_safety.check ~speculative repaired with
    | [] -> ()
    | f :: _ ->
      violate Repair_unsound "%s: repaired program is still flagged: %s\nplan:\n%s" where
        (show Analysis.Barrier_safety.pp_machine f)
        plan);
    (match Ir.Verifier.check_program repaired with
    | [] -> ()
    | errors ->
      violate Repair_unsound "%s: repaired program fails the verifier: %s" where
        (String.concat "; " (List.map (show Ir.Verifier.pp_error) errors)));
    let decoded = Ir.Decoded.decode (Ir.Linear.linearize repaired) in
    List.iter
      (fun cell ->
        match run cell with
        | Error (Deadlocked msg) ->
          violate Repair_unsound "%s: accepted repair deadlocked: %s\nplan:\n%s" cell.where msg
            plan
        | Error (Crashed msg) ->
          violate Repair_unsound "%s: accepted repair raised a runtime error: %s\nplan:\n%s"
            cell.where msg plan
        | Ok r -> (
          let want = List.assoc cell.kernel reference and got = image r in
          match difference want got with
          | None -> ()
          | Some Finished ->
            violate Repair_unsound
              "%s: repaired run finished %d threads, the PDOM baseline finished %d\nplan:\n%s"
              cell.where got.finished want.finished plan
          | Some (Address addr) ->
            violate Repair_unsound
              "%s: repaired memory differs from the PDOM baseline at address %d\nplan:\n%s"
              cell.where addr plan))
      (cells repaired decoded (by_policy ~max_issues (Printf.sprintf "%s, %s/%s" where)))

let check_repair ?(max_issues = 1_500_000) ?(variants = 3) ?(id = 0) ast =
  guard (fun () ->
      let staged = compile_both ast in
      let baseline = List.assoc "baseline" staged and specrecon = List.assoc "specrecon" staged in
      if baseline.C.lint_findings <> [] || specrecon.C.lint_findings <> [] then
        (* The unmutated program is itself flagged — the standard tier
           owns that contract (lint-spurious); skip it here. *)
        Limit
          (Printf.sprintf "repair tier skipped: unmutated program has %d finding(s)"
             (List.length specrecon.C.lint_findings))
      else begin
        (* The PDOM reference image per kernel: the standard matrix's
           first cell (the matrix proves baseline schedule-independence),
           read under the standard contracts. *)
        let reference =
          List.map
            (fun cell ->
              match run cell with
              | Ok r -> (cell.kernel, image r)
              | Error failure -> standard_failure baseline cell.where failure)
            (cells baseline.C.program baseline.C.decoded
               [ List.hd (by_policy ~max_issues (Printf.sprintf "baseline/%s/%s")) ])
        in
        for v = 0 to variants - 1 do
          match Misplace.mutate (Sm.of_ints mut_seed id v) specrecon.C.program with
          | None -> ()
          | Some (mname, mutant) -> (
            let speculative =
              C.speculative_meta ~applied:specrecon.C.applied
                ~interproc:specrecon.C.interproc_applied
            in
            match Analysis.Barrier_safety.check ~speculative mutant with
            | [] -> () (* benign misplacement; nothing for the repair pass to do *)
            | pre_findings ->
              repair_variant ~max_issues ~speculative ~reference
                ~where:(Printf.sprintf "variant %d (%s)" v mname)
                pre_findings mutant)
        done;
        Ok_run
      end)
