(* The srserved engine.

   A batch segment flows through three phases:

     1. admission  — sequential; everything beyond [max_inflight] gets
                     an Overloaded response and touches nothing;
     2. compile    — the segment's distinct uncached keys compile in
                     parallel (Support.Domain_pool), then every admitted
                     request resolves through the cache sequentially in
                     request order, fixing the hit/miss/eviction
                     counters each response will echo;
     3. launch     — compiled requests execute in parallel; the pool
                     reassembles results by index, so the response
                     stream is byte-identical whatever the domain count.

   The cache is only ever touched from the coordinating domain (phases
   1–2); workers receive resolved artifacts and build their own Memsys.
   That split is the whole determinism argument — there is no locked
   shared state for domains to race on, matching the repo's
   Domain_pool contract everywhere else. *)

module P = Protocol
module T = Ir.Types
module Sm = Support.Splitmix

type t = {
  cache : Core.Compile.compiled Cache.t;
  persist : Persist.t option;
  max_inflight : int;
  max_issues : int;
  fuel : int; (* default per-launch fuel budget; 0 = unlimited *)
  retry_after : int; (* back-off hint attached while draining *)
  race_gate : bool; (* refuse to launch programs with static race findings *)
  mutable draining : bool;
  mutable served : int;
}

let create ?(cache_capacity = 128) ?(max_inflight = 256) ?(max_issues = 1_500_000) ?(fuel = 0)
    ?persist_dir ?(retry_after = 1) ?(race_gate = false) () =
  if max_inflight < 1 then invalid_arg "Server.create: max_inflight must be >= 1";
  if fuel < 0 then invalid_arg "Server.create: fuel must be >= 0";
  if retry_after < 0 then invalid_arg "Server.create: retry_after must be >= 0";
  {
    cache = Cache.create ~capacity:cache_capacity;
    persist = Option.map (fun dir -> Persist.create ~dir) persist_dir;
    max_inflight;
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

(* ---- submit ---- *)

(* Per-request state as a segment moves through the phases. *)
type slot =
  | Done of P.response (* overloaded, or failed in an earlier phase *)
  | Compiled of P.request * Core.Compile.compiled * P.cache_status * int * int * int
    (* artifact + the cache status/counters this response will echo *)

let init_of_request (r : P.request) =
  if String.equal r.P.init "data" then data_init else fun _ _ -> ()

let launch_slot t = function
  | Done r -> r
  | Compiled (req, compiled, _, _, _, _)
    when t.race_gate && compiled.Core.Compile.race_findings <> [] ->
    let fs = compiled.Core.Compile.race_findings in
    P.Error
      {
        rid = req.P.id;
        code = Core.Cli.exit_code Core.Cli.Findings;
        kind = "race";
        msg =
          Printf.sprintf "%d static race finding(s); first: %s" (List.length fs)
            (Format.asprintf "%a" Analysis.Race_safety.pp_machine (List.hd fs));
      }
  | Compiled (req, compiled, cache, hits, misses, evictions) -> (
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
          hits;
          misses;
          evictions;
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

let run_segment t (requests : P.request list) =
  (* Phase 1: admission. A draining server admits nothing and attaches
     its back-off hint; a live one bounces only the overflow. *)
  let slots =
    List.mapi
      (fun i r ->
        if t.draining then
          Either.Right (P.Overloaded { rid = r.P.id; retry_after = Some t.retry_after })
        else if i < t.max_inflight then Either.Left r
        else Either.Right (P.Overloaded { rid = r.P.id; retry_after = None }))
      requests
  in
  (* Phase 2a: resolve what can be had without compiling. Persist loads
     happen here, sequentially in request order on the coordinating
     domain, so the phits/pcorrupt counters are deterministic; a
     persisted artifact skips the parallel compile but still commits to
     the in-memory cache as a Miss in phase 2b — the response stream is
     byte-identical whether the artifact was compiled or exhumed. *)
  let persisted = Hashtbl.create 8 in
  let missing = Hashtbl.create 8 in
  List.iter
    (function
      | Either.Right _ -> ()
      | Either.Left r ->
        let key = cache_key r in
        if
          (not (Cache.mem t.cache ~key))
          && (not (Hashtbl.mem persisted key))
          && not (Hashtbl.mem missing key)
        then begin
          match Option.bind t.persist (fun p -> Persist.load p ~key) with
          | Some compiled -> Hashtbl.replace persisted key (compiled : Core.Compile.compiled)
          | None -> Hashtbl.replace missing key (options_of_request r, r.P.source)
        end)
    slots;
  let missing_keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) missing []) in
  let precompiled = Hashtbl.create 8 in
  List.iter2
    (fun key result -> Hashtbl.replace precompiled key result)
    missing_keys
    (Support.Domain_pool.map
       (fun key ->
         let options, source = Hashtbl.find missing key in
         match Core.Compile.compile options ~source with
         | compiled -> Ok compiled
         | exception exn -> Error exn)
       missing_keys);
  (* Phase 2b: resolve every request through the cache sequentially in
     request order — counters become deterministic here. *)
  let resolved =
    List.map
      (function
        | Either.Right resp -> Done resp
        | Either.Left r -> (
          let key = cache_key r in
          let build () =
            match Hashtbl.find_opt persisted key with
            | Some compiled -> compiled
            | None -> (
              let compiled =
                match Hashtbl.find_opt precompiled key with
                | Some (Ok compiled) -> compiled
                | Some (Error exn) -> raise exn
                | None -> Core.Compile.compile (options_of_request r) ~source:r.P.source
              in
              (* Freshly compiled (not exhumed): write it through so a
                 restarted server can answer this key warm. *)
              Option.iter (fun p -> Persist.store p ~key compiled) t.persist;
              compiled)
          in
          match Cache.find_or_add t.cache ~key build with
          | cache, compiled ->
            Compiled
              ( r,
                compiled,
                cache,
                Cache.hits t.cache,
                Cache.misses t.cache,
                Cache.evictions t.cache )
          | exception exn -> Done (error_response r.P.id exn)))
      slots
  in
  (* Phase 3: launch in parallel; the pool's index-ordered reassembly is
     what keeps the response stream deterministic. *)
  let responses = Support.Domain_pool.map (launch_slot t) resolved in
  t.served <-
    t.served
    + List.length
        (List.filter (function P.Overloaded _ -> false | _ -> true) responses);
  responses

let submit t commands =
  (* Split into maximal Run segments; Stats/Quit/Shutdown are sequential
     markers whose responses observe every launch submitted before
     them. *)
  let flush pending acc =
    if pending = [] then acc else List.rev_append (run_segment t (List.rev pending)) acc
  in
  let rec go pending acc = function
    | [] -> List.rev (flush pending acc)
    | P.Run r :: rest -> go (r :: pending) acc rest
    | P.Stats id :: rest ->
      let acc = flush pending acc in
      let reply =
        P.Stats_reply
          {
            rid = id;
            hits = cache_hits t;
            misses = cache_misses t;
            evictions = cache_evictions t;
            entries = cache_entries t;
            served = t.served;
            phits = persist_hits t;
            pcorrupt = persist_corrupt t;
          }
      in
      go [] (reply :: acc) rest
    | P.Quit :: rest ->
      let acc = flush pending acc in
      go [] (P.Bye :: acc) rest
    | P.Shutdown :: rest ->
      (* Everything submitted before the shutdown completes and is
         answered; everything after it (this batch included) sees a
         draining server. *)
      let acc = flush pending acc in
      drain t;
      go [] (P.Bye :: acc) rest
  in
  go [] [] commands

let submit_lines t lines =
  (* Malformed lines become error responses inline (usage code, id -1:
     the id, if any, was part of what failed to parse) — the server
     never dies on bad input. *)
  let parsed =
    List.map
      (fun line ->
        match P.parse_command line with
        | Ok cmd -> Ok cmd
        | Error msg ->
          Error
            (P.Error
               { rid = -1;
                 code = Core.Cli.exit_code (Core.Cli.Usage msg);
                 kind = "malformed";
                 msg }))
      lines
  in
  let responses = submit t (List.filter_map Result.to_option parsed) in
  (* Reinterleave: parse failures answered in place, everything else in
     submission order. *)
  let rec weave parsed responses acc =
    match (parsed, responses) with
    | [], [] -> List.rev acc
    | Error resp :: rest, _ -> weave rest responses (resp :: acc)
    | Ok _ :: rest, resp :: more -> weave rest more (resp :: acc)
    | Ok _ :: _, [] | [], _ :: _ -> assert false
  in
  List.map P.print_response (weave parsed responses [])
