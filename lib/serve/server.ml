(* The srserved engine.

   Each command is answered on the calling domain before the next one
   is looked at. A run goes through three steps:

     1. admission  — a draining server bounces the run with its
                     back-off hint; a bounced run touches nothing;
     2. resolution — [Cache.find_or_add]; a miss loads the artifact from
                     the persist store, or compiles it and writes it
                     through;
     3. launch     — builds its own Memsys and never touches the cache.

   Only resolution touches the cache and the store, and it runs in
   command order, so the counters a response echoes and a [stats] reply
   reports depend on the command sequence alone. *)

module P = Protocol
module T = Ir.Types
module Sm = Support.Splitmix

type t = {
  cache : Core.Compile.compiled Cache.t;
  persist : Persist.t option;
  max_issues : int;
  fuel : int; (* default per-launch fuel budget; 0 = unlimited *)
  retry_after : int; (* back-off hint attached while draining *)
  race_gate : bool; (* refuse to launch programs with static race findings *)
  mutable draining : bool;
  mutable served : int;
}

let create ?(cache_capacity = 128) ?(max_issues = 1_500_000) ?(fuel = 0) ?persist_dir
    ?(retry_after = 1) ?(race_gate = false) () =
  if fuel < 0 then invalid_arg "Server.create: fuel must be >= 0";
  if retry_after < 0 then invalid_arg "Server.create: retry_after must be >= 0";
  {
    cache = Cache.create ~capacity:cache_capacity;
    persist = Option.map (fun dir -> Persist.create ~dir) persist_dir;
    max_issues;
    fuel;
    retry_after;
    race_gate;
    draining = false;
    served = 0;
  }

(* The fuzz oracles' input pattern (moved here from lib/fuzz so the wire
   protocol's [init=data] and the one-shot comparison path share it):
   keyed by global name and base address only, both fixed at lowering,
   so it is identical across compilation modes. *)
let data_init (program : T.program) mem =
  Hashtbl.iter
    (fun name (base, size) ->
      match name with
      | "datai" ->
        let rng = Sm.of_ints 0xda7a base 1 in
        for i = 0 to size - 1 do
          Simt.Memsys.write mem (base + i) (T.I (Sm.int rng 1024 - 256))
        done
      | "dataf" ->
        let rng = Sm.of_ints 0xda7a base 2 in
        for i = 0 to size - 1 do
          Simt.Memsys.write mem (base + i) (T.F (Sm.float rng *. 4.0 -. 1.0))
        done
      | _ -> ())
    program.T.globals

let served t = t.served
let cache_hits t = Cache.hits t.cache
let cache_misses t = Cache.misses t.cache
let cache_evictions t = Cache.evictions t.cache
let cache_entries t = Cache.length t.cache
let persist_hits t = match t.persist with Some p -> Persist.hits p | None -> 0
let persist_corrupt t = match t.persist with Some p -> Persist.corrupt p | None -> 0
let draining t = t.draining
let drain t = t.draining <- true

(* ---- request -> compile options / launch config ---- *)

(* The protocol admits only names from these vocabularies, so the
   lookups cannot miss. *)
let options_of_request (r : P.request) =
  {
    Core.Compile.mode = List.assoc r.P.mode Core.Compile.modes;
    coarsen = r.P.coarsen;
    threshold = Core.Compile.threshold_of_option r.P.threshold;
    cleanup = true;
    deconflict = true;
    lint = true;
    (* Findings travel in the artifact either way; the per-server
       race gate decides at launch time, so gated and ungated servers
       share cache/persist entries for one key. *)
    race = true;
    repair = Core.Compile.No_repair;
  }

(* Effective fuel: the request's deadline override, else the server
   default. 0 means unlimited either way. *)
let fuel_of_request t (r : P.request) = Option.value r.P.deadline ~default:t.fuel

let config_of_request t (r : P.request) =
  let config =
    { Simt.Config.default with
      Simt.Config.n_warps = r.P.warps;
      warp_size = r.P.warp_size;
      policy = List.assoc r.P.policy Simt.Config.policies;
      seed = r.P.seed;
      max_issues = t.max_issues;
      fuel = fuel_of_request t r }
  in
  Simt.Config.validate config;
  config

(* The cache key is every compile-relevant request field plus the full
   source; launch-only fields (warps, policy, seed, entry, args, init)
   deliberately stay out so a million differently-configured launches of
   one kernel share one artifact. *)
let cache_key (r : P.request) =
  Printf.sprintf "mode=%s coarsen=%s threshold=%s\n%s" r.P.mode
    (match r.P.coarsen with None -> "-" | Some k -> string_of_int k)
    (match r.P.threshold with None -> "-" | Some k -> string_of_int k)
    r.P.source

(* ---- failure mapping ---- *)

let outcome_kind_and_message = function
  | Core.Cli.Ok_exit -> ("ok", "")
  | Core.Cli.Findings -> ("findings", "")
  | Core.Cli.Usage m -> ("usage", m)
  | Core.Cli.Io_error m -> ("io", m)
  | Core.Cli.Syntax_error m -> ("syntax", m)
  | Core.Cli.Compile_error m -> ("compile", m)
  | Core.Cli.Deadlock m -> ("deadlock", m)
  | Core.Cli.Runtime_failure m -> ("runtime", m)
  | Core.Cli.Baseline_mismatch m -> ("baseline-mismatch", m)
  | Core.Cli.Deadline_exceeded m -> ("deadline", m)

let error_response rid exn =
  match Core.Cli.classify exn with
  | Some outcome ->
    let kind, msg = outcome_kind_and_message outcome in
    P.Error { rid; code = Core.Cli.exit_code outcome; kind; msg }
  | None -> raise exn (* a server bug, not a request failure: crash loudly *)

(* ---- answering ---- *)

let init_of_request (r : P.request) =
  if String.equal r.P.init "data" then data_init else fun _ _ -> ()

let resolve t (r : P.request) =
  let key = cache_key r in
  Cache.find_or_add t.cache ~key (fun () ->
      match Option.bind t.persist (fun p -> Persist.load p ~key) with
      | Some compiled -> compiled
      | None ->
        let compiled = Core.Compile.compile (options_of_request r) ~source:r.P.source in
        (* Freshly compiled (not exhumed): write it through so a
           restarted server can answer this key warm. *)
        Option.iter (fun p -> Persist.store p ~key compiled) t.persist;
        compiled)

let launch t (req : P.request) cache (compiled : Core.Compile.compiled) =
  match compiled.race_findings with
  | _ :: _ as fs when t.race_gate ->
    P.Error
      {
        rid = req.P.id;
        code = Core.Cli.exit_code Core.Cli.Findings;
        kind = "race";
        msg =
          Printf.sprintf "%d static race finding(s); first: %s" (List.length fs)
            (Format.asprintf "%a" Analysis.Race_safety.pp_machine (List.hd fs));
      }
  | _ -> (
    try
      let config = config_of_request t req in
      let outcome =
        Core.Runner.launch ~config ~init:(init_of_request req) ?entry:req.P.entry compiled
          ~args:req.P.args
      in
      let m = outcome.Core.Runner.metrics in
      P.Ok_run
        {
          P.rid = req.P.id;
          cache;
          hits = cache_hits t;
          misses = cache_misses t;
          evictions = cache_evictions t;
          cycles = m.Simt.Metrics.cycles;
          issues = m.Simt.Metrics.issues;
          active = m.Simt.Metrics.active_sum;
          finished = m.Simt.Metrics.threads_finished;
          digest = Simt.Memsys.digest outcome.Core.Runner.memory;
        }
    with
    | Simt.Interp.Out_of_budget (Simt.Interp.Fuel, _) ->
      (* An expected outcome of a budgeted run, not a failure: its own
         response head, mirroring exit code 9 on the one-shot path. *)
      P.Deadline { rid = req.P.id; fuel = fuel_of_request t req }
    | exn -> error_response req.P.id exn)

let answer t = function
  | P.Run r ->
    if t.draining then P.Overloaded { rid = r.P.id; retry_after = t.retry_after }
    else begin
      let response =
        match resolve t r with
        | cache, compiled -> launch t r cache compiled
        | exception exn -> error_response r.P.id exn
      in
      t.served <- t.served + 1;
      response
    end
  | P.Stats rid ->
    P.Stats_reply
      {
        rid;
        hits = cache_hits t;
        misses = cache_misses t;
        evictions = cache_evictions t;
        entries = cache_entries t;
        served = t.served;
        phits = persist_hits t;
        pcorrupt = persist_corrupt t;
      }
  | P.Quit -> P.Bye
  | P.Shutdown ->
    drain t;
    P.Bye

let submit t commands = List.map (answer t) commands

(* A malformed line answers in place (usage code, id -1: the id, if any,
   was part of what failed to parse) — the server never dies on bad
   input. *)
let answer_line t line =
  match P.parse_command line with
  | Ok cmd -> answer t cmd
  | Error msg ->
    P.Error { rid = -1; code = Core.Cli.exit_code (Core.Cli.Usage msg); kind = "malformed"; msg }
