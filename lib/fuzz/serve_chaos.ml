(* Service-level chaos: the serve-side mirror of the simulator chaos
   tier. Where Oracle.chaos_matrix perturbs the machine under one
   process, this harness perturbs the *transport and the lifecycle* of a
   real forked srserved socket server — torn lines, slow-loris sends,
   injected fuel budgets, clients that vanish unread, kill -9 between
   generations, corrupted persisted artifacts — and holds the service to
   two contracts:

   - every response a faulted run does deliver is byte-identical to the
     clean server's stream (or, for an injected fuel budget, a
     well-formed [deadline] naming that budget);
   - a kill-9'd server restarted over the same persistent store answers
     the same trace byte-identically, warm from the store, and injected
     store corruption degrades to counted misses, never to wrong
     answers.

   Servers are forked children running Serve.Transport.serve; Unix.fork
   is safe here because the server answers on the domain that calls it
   and never spawns another, so the campaign process never holds a
   second domain. The faulted pass is
   driven by a Serve.Faults plan whose recorded trace replays exactly —
   on a violation the trace is shrunk (Shrink.shrink_trace) by
   re-forking a server per candidate, so the reported repro is minimal. *)

module P = Serve.Protocol
module SF = Serve.Faults

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* -------------------------------------------------------------------- *)
(* Scratch directories and forked server lifecycle.                     *)

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

type proc = { pid : int; socket_path : string }

let start ?persist_dir ~max_issues ~dir name =
  let socket_path = Filename.concat dir (name ^ ".sock") in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let server =
         Serve.Server.create ~cache_capacity:64 ~max_issues ?persist_dir ()
       in
       Serve.Transport.serve ~read_timeout:10.0 server ~socket_path ()
     with _ -> ());
    Unix._exit 0
  | pid -> { pid; socket_path }

(* Bounded wait for the child; SIGKILL if it never exits. *)
let reap p =
  let rec go n =
    if n >= 200 then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] p.pid);
      None
    end
    else
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
        Unix.sleepf 0.02;
        go (n + 1)
      | _, status -> Some status
  in
  try go 0 with Unix.Unix_error _ -> None

(* Graceful drain: shutdown must answer [bye] and the child must exit 0
   — part of the contract under test, not just cleanup. *)
let shutdown_ok p =
  let bye =
    try
      let c = Serve.Client.connect p.socket_path in
      let r = Serve.Client.round_trip c [ P.print_command P.Shutdown ] in
      Serve.Client.close c;
      r = [ P.print_response P.Bye ]
    with _ -> false
  in
  match reap p with Some (Unix.WEXITED 0) -> bye | _ -> false

(* The crash under test: no drain, no flush, straight SIGKILL. *)
let kill9 p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] p.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

(* -------------------------------------------------------------------- *)
(* The request trace: one run line per generated program, same generator
   stream as the main fuzz campaign, request defaults (2 warps of 32,
   seed 11, data init). Any response — ok, error, deadline — is fine;
   the oracle only demands the faulted stream match the clean one. *)

let make_lines ~seed ~count =
  List.init count (fun i ->
      let case = Gen.generate ~seed i in
      let source = Front.Pretty.to_string case.Gen.ast in
      P.print_command (P.Run (P.make_request ~id:i ~init:"data" ~source ())))

let write_raw fd s off len =
  let rec go off len =
    if len > 0 then begin
      let n = try Unix.write_substring fd s off len with
        | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n) (len - n)
    end
  in
  go off len

(* -------------------------------------------------------------------- *)
(* Clean pass: fork a server, send the trace one request at a time,
   record the response stream, drain. The first clean pass is the
   reference; the last one proves the whole campaign replays
   byte-identically. *)

let clean_pass ~max_issues ~dir name lines =
  let p = start ~max_issues ~dir name in
  let responses =
    try
      let c = Serve.Client.connect p.socket_path in
      let rs = List.map (fun l -> Serve.Client.rpc c l) lines in
      Serve.Client.close c;
      Ok rs
    with exn -> Error (Printexc.to_string exn)
  in
  let drained = shutdown_ok p in
  match responses with
  | Error m -> Error m
  | Ok _ when not drained -> Error "clean server did not drain to exit 0"
  | Ok rs -> Ok rs

(* -------------------------------------------------------------------- *)
(* Faulted pass. One main connection carries the conversation; side
   connections model the hostile clients (torn sends, vanishing
   readers). Per request the plan picks a disposition:

   - Clean: send on the main connection; response must be byte-identical
     to the reference.
   - Truncated keep: a side connection sends [keep] bytes of the line,
     no newline, and closes. The transport must discard the partial at
     EOF without touching any counter, so the clean resend on the main
     connection must still be byte-identical.
   - Slowed chunk: the line dribbles onto the main connection in
     [chunk]-byte pieces (well inside the read timeout); byte-identical
     required.
   - Fueled fuel: the request is resent with [deadline=fuel]. The fuel
     field is not part of the cache key and cache counters resolve
     before launch, so the response is either byte-identical to the
     reference (budget not reached) or a [deadline] naming exactly this
     rid and fuel — and either way every later response stays aligned.
   - Aborted: a side connection sends the request fully and closes
     without reading. The server must process it exactly once (counters
     advance as in the reference) and survive the dead-peer write. The
     main connection then polls [stats] until [served] catches up —
     responses echo cumulative counters, so the next main-connection
     request may not race the side connection's processing. *)

let faulted_pass ~max_issues ~dir ~name plan lines reference =
  let p = start ~max_issues ~dir name in
  let outcome =
    try
      let c = Serve.Client.connect p.socket_path in
      let stats_line = P.print_command (P.Stats 0) in
      let wait_served want =
        let rec go n =
          if n > 500 then
            failf "aborted request never processed (want served=%d)" want
          else
            match P.parse_response (Serve.Client.rpc c stats_line) with
            | Ok (P.Stats_reply { served; _ }) when served >= want -> ()
            | _ ->
              Unix.sleepf 0.01;
              go (n + 1)
        in
        go 0
      in
      let mismatch i what got want =
        failf "request %d (%s): faulted stream diverged\n  faulted: %s\n  clean:   %s" i
          what got want
      in
      List.iteri
        (fun i (line, want) ->
          let len = String.length line in
          match SF.request_fault plan ~len with
          | SF.Clean ->
            let got = Serve.Client.rpc c line in
            if not (String.equal got want) then mismatch i "clean" got want
          | SF.Truncated keep ->
            let side = Serve.Client.connect p.socket_path in
            write_raw (Serve.Client.fd side) line 0 (min keep len);
            Serve.Client.close side;
            let got = Serve.Client.rpc c line in
            if not (String.equal got want) then
              mismatch i (Printf.sprintf "torn at %d bytes, clean resend" keep) got want
          | SF.Slowed chunk ->
            let fd = Serve.Client.fd c in
            let rec dribble off =
              if off < len then begin
                let n = min chunk (len - off) in
                write_raw fd line off n;
                Unix.sleepf 0.002;
                dribble (off + n)
              end
            in
            dribble 0;
            write_raw fd "\n\n" 0 2;
            let got =
              match Serve.Client.recv c 1 with [ g ] -> g | _ -> assert false
            in
            if not (String.equal got want) then
              mismatch i (Printf.sprintf "slow-loris, %d-byte chunks" chunk) got want
          | SF.Fueled fuel ->
            let fueled_line =
              match P.parse_command line with
              | Ok (P.Run r) ->
                P.print_command (P.Run { r with P.deadline = Some fuel })
              | _ -> line
            in
            let got = Serve.Client.rpc c fueled_line in
            let ok =
              String.equal got want
              ||
              match P.parse_response got with
              | Ok (P.Deadline { rid; fuel = f }) -> rid = i && f = fuel
              | _ -> false
            in
            if not ok then
              failf
                "request %d (injected deadline=%d): expected the clean response or a \
                 matching deadline\n  faulted: %s\n  clean:   %s"
                i fuel got want
          | SF.Aborted ->
            let side = Serve.Client.connect p.socket_path in
            Serve.Client.send side [ line ];
            Serve.Client.close side;
            wait_served (i + 1))
        (List.combine lines reference);
      Serve.Client.close c;
      Ok ()
    with
    | Fail m -> Error m
    | exn -> Error (Printexc.to_string exn)
  in
  let drained = shutdown_ok p in
  match outcome with
  | Ok () when not drained -> Error "faulted server did not drain to exit 0"
  | r -> r

(* -------------------------------------------------------------------- *)
(* Oracle A: transport chaos. Clean reference, [plans] seeded fault
   plans, then a clean rerun that must reproduce the reference
   byte-for-byte. On a violation the recorded fault trace is shrunk by
   replaying candidate sub-traces against fresh servers. *)

let check_transport ?(count = 30) ?(plans = 2) ?(max_issues = 200_000) ~seed ~chaos_seed
    () =
  let lines = make_lines ~seed ~count in
  let dir = temp_dir "srchaos" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let replays = ref 0 in
  let viol detail = Oracle.Violation { Oracle.kind = Oracle.Serve_chaos; detail } in
  match clean_pass ~max_issues ~dir "clean" lines with
  | Error m -> (!replays, viol ("clean reference pass failed: " ^ m))
  | Ok reference ->
    replays := count;
    let violation = ref None in
    for k = 0 to plans - 1 do
      if !violation = None then begin
        let plan_seed = chaos_seed + (7919 * k) in
        let plan = SF.create ~seed:plan_seed in
        replays := !replays + count;
        match
          faulted_pass ~max_issues ~dir ~name:(Printf.sprintf "plan%d" k) plan lines
            reference
        with
        | Ok () -> ()
        | Error msg ->
          let events = SF.events plan in
          let minimal =
            Shrink.shrink_trace ~budget:8 events ~still_failing:(fun evs ->
                replays := !replays + count;
                match
                  faulted_pass ~max_issues ~dir ~name:"shrink" (SF.replay evs) lines
                    reference
                with
                | Error _ -> true
                | Ok () -> false)
          in
          violation :=
            Some
              (viol
                 (Printf.sprintf
                    "plan %d (fault seed %d): %s\n  minimal trace (%d of %d events):\n%s"
                    k plan_seed msg (List.length minimal) (List.length events)
                    (SF.trace_to_string minimal)))
      end
    done;
    (match !violation with
    | Some v -> (!replays, v)
    | None -> (
      replays := !replays + count;
      match clean_pass ~max_issues ~dir "rerun" lines with
      | Error m -> (!replays, viol ("clean rerun failed: " ^ m))
      | Ok again when again <> reference ->
        let i =
          let rec first n = function
            | a :: at, b :: bt -> if String.equal a b then first (n + 1) (at, bt) else n
            | _ -> n
          in
          first 0 (again, reference)
        in
        (!replays, viol (Printf.sprintf "clean rerun diverged at request %d" i))
      | Ok _ -> (!replays, Oracle.Ok_run)))

(* -------------------------------------------------------------------- *)
(* Oracle B: crash-safe persistence. Generation 1 serves the trace twice
   (cold then warm) over a fresh store and is killed -9 — artifacts are
   written through at compile time, so nothing is lost. Generation 2
   over the same store must answer the identical trace byte-for-byte,
   warm from disk (stats phits = one per program, pcorrupt 0).
   The store is then mangled per the plan's file channel; generation 3
   must still be byte-identical, counting exactly the corrupted entries
   as pcorrupt and re-serving the rest from disk. *)

let truncate_half path =
  let n = (Unix.stat path).Unix.st_size in
  Unix.truncate path (n / 2)

let check_persist ?(count = 12) ?(max_issues = 200_000) ~seed ~chaos_seed () =
  let lines = make_lines ~seed ~count in
  let trace = lines @ lines in
  let dir = temp_dir "srpersist" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Filename.concat dir "store" in
  let replays = ref 0 in
  let viol detail = Oracle.Violation { Oracle.kind = Oracle.Serve_persist; detail } in
  let run_gen name ~crash =
    let p = start ~persist_dir:store ~max_issues ~dir name in
    let result =
      try
        let c = Serve.Client.connect p.socket_path in
        let rs = List.map (fun l -> Serve.Client.rpc c l) trace in
        let stats = Serve.Client.rpc c (P.print_command (P.Stats 0)) in
        Serve.Client.close c;
        Ok (rs, stats)
      with exn -> Error (Printexc.to_string exn)
    in
    replays := !replays + List.length trace;
    if crash then begin
      kill9 p;
      result
    end
    else
      match result with
      | Ok _ when not (shutdown_ok p) ->
        Error (name ^ ": server did not drain to exit 0")
      | r ->
        if Result.is_error r then ignore (reap p);
        r
  in
  let counters stats =
    match P.parse_response stats with
    | Ok (P.Stats_reply { phits; pcorrupt; _ }) -> Some (phits, pcorrupt)
    | _ -> None
  in
  match run_gen "gen1" ~crash:true with
  | Error m -> (!replays, viol ("generation 1 (pre-crash) failed: " ^ m))
  | Ok (r1, s1) -> (
    match counters s1 with
    | Some (phits, _) when phits > 0 ->
      (!replays, viol "generation 1 reported persist hits on a fresh store")
    | _ -> (
      match run_gen "gen2" ~crash:false with
      | Error m -> (!replays, viol ("generation 2 (post-kill-9 restart) failed: " ^ m))
      | Ok (r2, s2) ->
        if r2 <> r1 then
          (!replays, viol "restarted server's responses differ from the pre-crash run")
        else (
          match counters s2 with
          | Some (phits, pcorrupt) when phits <> count || pcorrupt <> 0 ->
            ( !replays,
              viol
                (Printf.sprintf
                   "restart should serve every program from the store: phits=%d \
                    (want %d) pcorrupt=%d (want 0)"
                   phits count pcorrupt) )
          | None -> (!replays, viol ("generation 2 stats unparsable: " ^ s2))
          | Some _ -> (
            (* Mangle the store per the plan's file channel. *)
            let plan = SF.create ~seed:(chaos_seed lxor 0x9e37) in
            let arts =
              Sys.readdir store |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".art")
              |> List.sort String.compare
            in
            let corrupted =
              List.length
                (List.filter
                   (fun f ->
                     let hit = SF.file_fault plan in
                     if hit then truncate_half (Filename.concat store f);
                     hit)
                   arts)
            in
            match run_gen "gen3" ~crash:false with
            | Error m -> (!replays, viol ("generation 3 (corrupted store) failed: " ^ m))
            | Ok (r3, s3) ->
              if r3 <> r1 then
                ( !replays,
                  viol "corrupted-store responses differ from the pre-crash run" )
              else (
                match counters s3 with
                | Some (phits, pcorrupt)
                  when corrupted > 0
                       && (pcorrupt <> corrupted || phits <> count - corrupted) ->
                  ( !replays,
                    viol
                      (Printf.sprintf
                         "corruption mis-counted: phits=%d pcorrupt=%d, but the plan \
                          corrupted %d of %d entries"
                         phits pcorrupt corrupted count) )
                | None -> (!replays, viol ("generation 3 stats unparsable: " ^ s3))
                | Some _ -> (!replays, Oracle.Ok_run))))))

(* -------------------------------------------------------------------- *)
(* The campaign srfuzz --serve-chaos runs: both oracles at one seed. *)

type campaign = {
  replays : int;  (** trace-request replays forked servers answered *)
  plans : int;  (** transport fault plans exercised *)
  violations : Oracle.violation list;
}

let run ?(count = 30) ?(plans = 2) ?(persist_count = 12) ?(max_issues = 200_000)
    ?(chaos_seed = 0xc4a05) ~seed () =
  let tr, tv = check_transport ~count ~plans ~max_issues ~seed ~chaos_seed () in
  let pr, pv = check_persist ~count:persist_count ~max_issues ~seed ~chaos_seed () in
  let violations =
    List.filter_map
      (function Oracle.Violation v -> Some v | Oracle.Ok_run | Oracle.Limit _ -> None)
      [ tv; pv ]
  in
  { replays = tr + pr; plans; violations }
