(* The serve tier: wire protocol round trips, the content-addressed
   compile cache, and the srserved engine held to the one-shot
   Core.Compile/Core.Runner pipeline — per-request error mapping through
   the 0–8 code contract, drain, and the full-registry differential. *)

module P = Serve.Protocol
module Cache = Serve.Cache
module Server = Serve.Server

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ---- protocol: percent encoding ---- *)

let test_encode_round_trip () =
  let cases =
    [ ""; "plain"; "a b\tc"; "line1\nline2\r\n"; "100%"; "%20"; "mixed %\n\t end " ]
  in
  List.iter
    (fun s -> check_string ("round trip " ^ String.escaped s) s (P.decode (P.encode s)))
    cases;
  check_bool "encoded output has no raw space/newline" true
    (String.for_all
       (fun c -> c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r')
       (P.encode "a b\nc\td\r%"))

let test_decode_rejects_bad_escapes () =
  List.iter
    (fun s ->
      match P.decode s with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("decode accepted " ^ s))
    [ "%"; "%2"; "%zz"; "trailing%2"; "%1_"; "%+1" ]

(* ---- protocol: command and response round trips ---- *)

let sample_source = "global out: int[64];\n\nkernel k(n: int) {\n  out[tid()] = n;\n}\n"

let round_trip_command cmd =
  match P.parse_command (P.print_command cmd) with
  | Ok parsed -> check_string "command round trip" (P.print_command cmd) (P.print_command parsed)
  | Error msg -> Alcotest.fail ("printed command failed to parse: " ^ msg)

let test_command_round_trips () =
  round_trip_command (P.Run (P.make_request ~id:3 ~source:sample_source ()));
  round_trip_command
    (P.Run
       (P.make_request ~id:7 ~mode:"baseline" ~policy:"round-robin" ~warps:4 ~warp_size:16
          ~seed:99 ~coarsen:8 ~threshold:(-1) ~entry:"k"
          ~args:
            [ Ir.Types.I 42; Ir.Types.F 0.5; Ir.Types.F (-1.25); Ir.Types.F (-0.);
              Ir.Types.F infinity ]
          ~init:"data" ~source:sample_source ()));
  round_trip_command (P.Run (P.make_request ~id:8 ~deadline:5000 ~source:sample_source ()));
  round_trip_command (P.Stats 12);
  round_trip_command P.Quit;
  round_trip_command P.Shutdown

let round_trip_response resp =
  match P.parse_response (P.print_response resp) with
  | Ok parsed ->
    check_string "response round trip" (P.print_response resp) (P.print_response parsed)
  | Error msg -> Alcotest.fail ("printed response failed to parse: " ^ msg)

let test_response_round_trips () =
  round_trip_response
    (P.Ok_run
       {
         P.rid = 5;
         cache = P.Hit;
         hits = 3;
         misses = 2;
         evictions = 1;
         cycles = 1234;
         issues = 5678;
         active = 90;
         finished = 64;
         digest = 0x0903df3e9e8ada03;
       });
  round_trip_response
    (P.Error { rid = 9; code = 4; kind = "syntax"; msg = "line 2: unexpected token\nhint" });
  round_trip_response (P.Overloaded { rid = 12; retry_after = 3 });
  round_trip_response (P.Deadline { rid = 13; fuel = 5000 });
  round_trip_response
    (P.Stats_reply
       {
         rid = 1;
         hits = 10;
         misses = 4;
         evictions = 2;
         entries = 2;
         served = 14;
         phits = 3;
         pcorrupt = 1;
       });
  round_trip_response P.Bye;
  (* The digest is bare hex, as printed; OCaml literal syntax is not.
     An overloaded response always carries its back-off hint. *)
  List.iter
    (fun line ->
      match P.parse_response line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parser accepted " ^ line))
    ("overloaded id=11"
    :: List.map
         (fun digest ->
           "ok id=1 cache=hit hits=0 misses=0 evictions=0 cycles=1 issues=1 active=1 finished=1 \
            digest=" ^ digest)
         [ "0x10"; "1_0"; "+1"; "" ])

let test_malformed_commands () =
  List.iter
    (fun line ->
      match P.parse_command line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parser accepted " ^ line))
    [
      "launch id=1 source=x";       (* unknown head *)
      "run id=1";                    (* missing source *)
      "run id=1 source=x bogus=1";   (* unknown key *)
      "run id=nope source=x";        (* bad integer *)
      "run id=1 mode=jit source=x";  (* unknown mode *)
      "run id=1 policy=fifo source=x";
      "run id=1 init=random source=x";
      "run id=1 source=%zz";         (* bad escape *)
      "run id=1 id=2 source=x";      (* duplicate key *)
      "run id=1 deadline=-1 source=x"; (* negative deadline *)
      "run id=0x10 source=x";        (* non-decimal integers *)
      "run id=0b11 source=x";
      "run id=1_0 source=x";
      "run id=1 warps=+2 source=x";
      "run id=1 threshold=- source=x";
      "run id=1 source=%1_";         (* non-hex escape *)
      "run id=1 args=0x10 source=x"; (* arguments the printer never spells *)
      "run id=1 args=1_0 source=x";
      "run id=1 args=+2 source=x";
      "run id=1 args=1.5e0 source=x";
      "ok rid=1";                    (* response head on the request side *)
    ]

(* ---- cache ---- *)

(* FNV-1a 64 pins (offset basis and the canonical "a" vector), folded to
   a non-negative OCaml int the way the cache stores them. *)
let test_digest_pins () =
  check_int "fnv-1a of empty" (Int64.to_int 0xcbf29ce484222325L land max_int) (Cache.digest "");
  check_int "fnv-1a of a" (Int64.to_int 0xaf63dc4c8601ec8cL land max_int) (Cache.digest "a");
  check_bool "digest differs on content" true (Cache.digest "kernel a" <> Cache.digest "kernel b");
  check_bool "digest is stable" true (Cache.digest sample_source = Cache.digest sample_source)

let test_cache_hit_after_miss () =
  let c = Cache.create ~capacity:4 in
  let builds = ref 0 in
  let build () = incr builds; "artifact" in
  let s1, v1 = Cache.find_or_add c ~key:"k" build in
  let s2, v2 = Cache.find_or_add c ~key:"k" build in
  check_bool "first is a miss" true (s1 = P.Miss);
  check_bool "second is a hit" true (s2 = P.Hit);
  check_int "built exactly once" 1 !builds;
  check_bool "hit returns the identical artifact" true (v1 == v2);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c);
  check_int "entries" 1 (Cache.length c)

let test_cache_eviction_at_capacity () =
  let c = Cache.create ~capacity:2 in
  let add k = ignore (Cache.find_or_add c ~key:k (fun () -> k)) in
  add "a";
  add "b";
  check_int "no eviction while below capacity" 0 (Cache.evictions c);
  add "c" (* evicts the least recently used: "a" *);
  check_int "one eviction at capacity" 1 (Cache.evictions c);
  check_int "still at capacity" 2 (Cache.length c);
  check_bool "stalest key evicted" false (Cache.mem c ~key:"a");
  check_bool "recent keys resident" true (Cache.mem c ~key:"b" && Cache.mem c ~key:"c");
  (* Touching "b" makes "c" the LRU entry. *)
  add "b";
  add "d";
  check_bool "recency updated on hit" true (Cache.mem c ~key:"b");
  check_bool "untouched entry evicted" false (Cache.mem c ~key:"c")

let test_cache_capacity_zero_disabled () =
  let c = Cache.create ~capacity:0 in
  let builds = ref 0 in
  let build () = incr builds; () in
  ignore (Cache.find_or_add c ~key:"k" build);
  ignore (Cache.find_or_add c ~key:"k" build);
  check_int "every lookup rebuilds" 2 !builds;
  check_int "nothing retained" 0 (Cache.length c);
  check_int "no hits" 0 (Cache.hits c);
  check_int "all misses" 2 (Cache.misses c)

let test_cache_failed_build_not_cached () =
  let c = Cache.create ~capacity:4 in
  (match Cache.find_or_add c ~key:"k" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the build failure to propagate");
  check_int "failure still counts as a miss" 1 (Cache.misses c);
  check_int "failure never cached" 0 (Cache.length c);
  let status, v = Cache.find_or_add c ~key:"k" (fun () -> "ok") in
  check_bool "retry is a fresh miss" true (status = P.Miss && v = "ok")

(* ---- server ---- *)

let ok_source = "global out: int[64];\n\nkernel k() {\n  out[tid()] = tid();\n}\n"
let other_source = "global out: int[64];\n\nkernel k() {\n  out[tid()] = 2 * tid();\n}\n"

let reply_exn = function
  | P.Ok_run r -> r
  | other -> Alcotest.failf "expected ok, got: %s" (P.print_response other)

let test_server_hit_after_miss () =
  let server = Server.create ~cache_capacity:8 () in
  let req id = P.Run (P.make_request ~id ~warps:1 ~source:ok_source ()) in
  match Server.submit server [ req 0; req 1 ] with
  | [ first; second ] ->
    let a = reply_exn first and b = reply_exn second in
    check_bool "first is a miss" true (a.P.cache = P.Miss);
    check_bool "second is a hit" true (b.P.cache = P.Hit);
    check_int "counters after miss: hits" 0 a.P.hits;
    check_int "counters after miss: misses" 1 a.P.misses;
    check_int "counters after hit: hits" 1 b.P.hits;
    check_int "counters after hit: misses" 1 b.P.misses;
    check_bool "hit reproduces the digest" true (a.P.digest = b.P.digest);
    check_bool "hit reproduces the metrics" true
      (a.P.cycles = b.P.cycles && a.P.issues = b.P.issues && a.P.finished = b.P.finished);
    check_int "both launches served" 2 (Server.served server)
  | other -> Alcotest.failf "expected 2 responses, got %d" (List.length other)

let test_server_eviction () =
  let server = Server.create ~cache_capacity:1 () in
  let req id source = P.Run (P.make_request ~id ~warps:1 ~source ()) in
  let responses =
    Server.submit server [ req 0 ok_source; req 1 other_source; req 2 ok_source ]
  in
  check_int "three responses" 3 (List.length responses);
  (* Capacity 1: each distinct source evicts the previous one, so the
     re-submitted first kernel misses again. *)
  check_int "all misses" 3 (Server.cache_misses server);
  check_int "no hits" 0 (Server.cache_hits server);
  check_int "two evictions" 2 (Server.cache_evictions server);
  check_int "one resident entry" 1 (Server.cache_entries server)

(* Per-request failures map to exactly the exit code the one-shot tools
   would have died with, and never tear the server down. *)
let test_server_error_codes () =
  let server = Server.create ~cache_capacity:8 () in
  let expect_error name code kind resp =
    match resp with
    | P.Error e ->
      check_int (name ^ " code") code e.code;
      check_string (name ^ " kind") kind e.kind
    | other -> Alcotest.failf "%s: expected error, got: %s" name (P.print_response other)
  in
  let syntax = P.Run (P.make_request ~id:0 ~source:"kernel k( {" ()) in
  let compile = P.Run (P.make_request ~id:1 ~source:"kernel k() {\n  x = 1;\n}\n" ()) in
  let runtime =
    P.Run (P.make_request ~id:2 ~warps:1 ~source:"global out: int[4];\n\nkernel k() {\n  out[tid()] = 1;\n}\n" ())
  in
  let usage = P.Run (P.make_request ~id:3 ~warps:0 ~source:ok_source ()) in
  let healthy = P.Run (P.make_request ~id:4 ~warps:1 ~source:ok_source ()) in
  match Server.submit server [ syntax; compile; runtime; usage; healthy ] with
  | [ r0; r1; r2; r3; r4 ] ->
    expect_error "syntax" 4 "syntax" r0;
    expect_error "compile" 5 "compile" r1;
    expect_error "runtime" 7 "runtime" r2;
    expect_error "usage" 2 "usage" r3;
    check_bool "server survives bad requests" true
      (match r4 with P.Ok_run _ -> true | _ -> false)
  | other -> Alcotest.failf "expected 5 responses, got %d" (List.length other)

let test_server_stats_and_lines () =
  let server = Server.create ~cache_capacity:8 () in
  let run id = P.print_command (P.Run (P.make_request ~id ~warps:1 ~source:ok_source ())) in
  let lines = [ run 0; "nonsense line"; run 1; P.print_command (P.Stats 7) ] in
  match List.map (fun line -> P.print_response (Server.answer_line server line)) lines with
  | [ l0; l1; l2; l3 ] ->
    check_bool "first ok" true
      (match P.parse_response l0 with Ok (P.Ok_run _) -> true | _ -> false);
    (* Malformed lines answer in place with the usage code. *)
    (match P.parse_response l1 with
    | Ok (P.Error e) ->
      check_int "malformed code" 2 e.code;
      check_string "malformed kind" "malformed" e.kind
    | _ -> Alcotest.fail "malformed line did not answer with an error");
    check_bool "third ok" true
      (match P.parse_response l2 with Ok (P.Ok_run _) -> true | _ -> false);
    (match P.parse_response l3 with
    | Ok (P.Stats_reply s) ->
      check_int "stats echoes id" 7 s.rid;
      check_int "stats hits" 1 s.hits;
      check_int "stats misses" 1 s.misses;
      check_int "stats served" 2 s.served
    | _ -> Alcotest.fail "stats line did not answer with a stats reply")
  | other -> Alcotest.failf "expected 4 response lines, got %d" (List.length other)

(* The channel front end answers a run line as soon as it reads it: with
   the request pipe held open and nothing written after the run, the
   response must still arrive. The wait is bounded, so a front end that
   holds the run back fails here instead of hanging. *)
let test_channel_answers_before_next_line () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server_domain =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
        Serve.Transport.serve_channel (Server.create ~cache_capacity:8 ()) ic oc;
        close_in ic;
        close_out oc)
  in
  let requests = Unix.out_channel_of_descr req_w in
  let send command =
    output_string requests (P.print_command command ^ "\n");
    flush requests
  in
  send (P.Run (P.make_request ~id:0 ~warps:1 ~source:ok_source ()));
  let ready, _, _ = Unix.select [ resp_r ] [] [] 5.0 in
  send P.Quit;
  close_out requests;
  Domain.join server_domain;
  let responses = Unix.in_channel_of_descr resp_r in
  let lines = In_channel.input_all responses |> String.split_on_char '\n' in
  close_in responses;
  check_bool "the run is answered before the next line arrives" true (ready <> []);
  match lines with
  | [ ok; "bye"; "" ] ->
    check_bool "the run's response is ok" true
      (match P.parse_response ok with Ok (P.Ok_run { P.rid = 0; _ }) -> true | _ -> false)
  | _ -> Alcotest.failf "expected ok then bye, got: %s" (String.concat " | " lines)

(* The cached artifact is the same immutable Ir.Decoded the fresh
   compile produced — not a re-decode, not a copy that could drift. *)
let test_server_hit_serves_identical_artifact () =
  let options =
    {
      Core.Compile.mode = Core.Compile.Speculative Passes.Deconflict.Dynamic;
      coarsen = None;
      threshold = Core.Compile.Keep;
      cleanup = true;
      deconflict = true;
      lint = true;
      race = true;
      repair = Core.Compile.No_repair;
    }
  in
  let cache = Cache.create ~capacity:2 in
  let build () = Core.Compile.compile options ~source:ok_source in
  let _, fresh = Cache.find_or_add cache ~key:"k" build in
  let status, cached = Cache.find_or_add cache ~key:"k" build in
  check_bool "second lookup hits" true (status = P.Hit);
  check_bool "hit is physically the same artifact" true (fresh == cached);
  check_string "identical decoded program"
    (Format.asprintf "%a" Ir.Decoded.pp fresh.Core.Compile.decoded)
    (Format.asprintf "%a" Ir.Decoded.pp cached.Core.Compile.decoded)

(* ---- persistence, deadlines, drain ---- *)

let temp_dir () =
  let path = Filename.temp_file "srserve_test" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_persist_round_trip () =
  with_temp_dir (fun dir ->
      let p = Serve.Persist.create ~dir in
      check_bool "missing key is a plain miss" true (Serve.Persist.load p ~key:"k" = None);
      check_int "missing key is not corruption" 0 (Serve.Persist.corrupt p);
      Serve.Persist.store p ~key:"k" [ 1; 2; 3 ];
      check_bool "stored value loads back" true (Serve.Persist.load p ~key:"k" = Some [ 1; 2; 3 ]);
      check_int "one persist hit" 1 (Serve.Persist.hits p);
      (* A different key hashing to a different file stays a miss. *)
      check_bool "other key misses" true ((Serve.Persist.load p ~key:"other" : int list option) = None);
      (* Crash-safety residue: a stray .tmp never shadows the entry. *)
      check_bool "no tmp residue after store" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir)))

let corrupt_every_entry dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".art" then begin
        let path = Filename.concat dir f in
        let oc = open_out_bin path in
        output_string oc "srpersist2 garbage";
        close_out oc
      end)
    (Sys.readdir dir)

let truncate_every_entry dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".art" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let half = really_input_string ic (n / 2) in
        close_in ic;
        let oc = open_out_bin path in
        output_string oc half;
        close_out oc
      end)
    (Sys.readdir dir)

let test_persist_corruption_degrades_to_miss () =
  with_temp_dir (fun dir ->
      let p = Serve.Persist.create ~dir in
      Serve.Persist.store p ~key:"k" "payload";
      truncate_every_entry dir;
      check_bool "truncated entry is a miss" true ((Serve.Persist.load p ~key:"k" : string option) = None);
      check_int "truncation counted as corrupt" 1 (Serve.Persist.corrupt p);
      Serve.Persist.store p ~key:"k" "payload";
      corrupt_every_entry dir;
      check_bool "mangled entry is a miss" true ((Serve.Persist.load p ~key:"k" : string option) = None);
      check_int "mangling counted as corrupt" 2 (Serve.Persist.corrupt p);
      check_int "no hits from corrupt entries" 0 (Serve.Persist.hits p))

(* A restarted server with the same persist dir must answer the same
   trace with a byte-identical run-response stream (persist loads commit
   as in-memory misses), visible only as phits in stats. *)
let test_server_persist_restart () =
  with_temp_dir (fun dir ->
      let trace =
        [
          P.Run (P.make_request ~id:0 ~warps:1 ~source:ok_source ());
          P.Run (P.make_request ~id:1 ~warps:1 ~source:other_source ());
          P.Run (P.make_request ~id:2 ~warps:1 ~source:ok_source ());
        ]
      in
      let render server = List.map P.print_response (Server.submit server trace) in
      let cold = Server.create ~cache_capacity:8 ~persist_dir:dir () in
      let cold_lines = render cold in
      check_int "cold run persisted nothing from disk" 0 (Server.persist_hits cold);
      (* "Restart": a brand-new server over the same directory. *)
      let warm = Server.create ~cache_capacity:8 ~persist_dir:dir () in
      let warm_lines = render warm in
      List.iteri
        (fun i (a, b) -> check_string (Printf.sprintf "response %d byte-identical" i) a b)
        (List.combine cold_lines warm_lines);
      check_bool "restart answered from the persistent store" true (Server.persist_hits warm > 0);
      check_int "no corruption seen" 0 (Server.persist_corrupt warm);
      (* Corrupt the store: a third server still answers identically,
         counting the damage. *)
      truncate_every_entry dir;
      let hurt = Server.create ~cache_capacity:8 ~persist_dir:dir () in
      let hurt_lines = render hurt in
      List.iteri
        (fun i (a, b) ->
          check_string (Printf.sprintf "post-corruption response %d byte-identical" i) a b)
        (List.combine cold_lines hurt_lines);
      check_bool "corruption detected" true (Server.persist_corrupt hurt > 0);
      check_int "corrupt entries served no hits" 0 (Server.persist_hits hurt))

(* Each cache miss the store answers is one load, whatever made the
   run miss. A first server warms the store; capacity 0 (no caching)
   and capacity 1 (an eviction) then both force [a]'s second run to
   miss again, and the store answers it again. *)
let test_stats_one_load_per_miss () =
  with_temp_dir (fun dir ->
      let run id source = P.Run (P.make_request ~id ~warps:1 ~source ()) in
      let trace = [ run 0 ok_source; run 1 other_source; run 2 ok_source; P.Stats 3 ] in
      ignore (Server.submit (Server.create ~cache_capacity:8 ~persist_dir:dir ()) trace);
      List.iter
        (fun cache_capacity ->
          let server = Server.create ~cache_capacity ~persist_dir:dir () in
          match List.rev (Server.submit server trace) with
          | P.Stats_reply s :: _ ->
            check_int (Printf.sprintf "capacity %d: misses" cache_capacity) 3 s.misses;
            check_int (Printf.sprintf "capacity %d: phits" cache_capacity) 3 s.phits
          | _ -> Alcotest.fail "the trace's stats line got no stats reply")
        [ 0; 1 ])

(* Rewrite each entry's build field as if another build of the server
   had written it; the payload and its digest stay valid. *)
let rebrand_every_entry dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".art" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let raw = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let nl = String.index raw '\n' in
        let header =
          match String.split_on_char ' ' (String.sub raw 0 nl) with
          | m :: build :: rest ->
            let other = String.map (fun c -> if c = '0' then '1' else '0') build in
            String.concat " " (m :: other :: rest)
          | _ -> Alcotest.fail ("unexpected persist header in " ^ f)
        in
        let oc = open_out_bin path in
        output_string oc header;
        output_string oc (String.sub raw nl (String.length raw - nl));
        close_out oc
      end)
    (Sys.readdir dir)

(* Marshal carries no types: an artifact another build wrote could
   unmarshal into wrong values. Such an entry is a counted corrupt miss,
   the run compiles and answers as a fresh compile would, and the entry
   it stores back serves the next server. *)
let test_persist_other_build_is_a_miss () =
  with_temp_dir (fun dir ->
      let trace = [ P.Run (P.make_request ~id:0 ~warps:1 ~source:ok_source ()); P.Stats 1 ] in
      let answer () =
        match Server.submit (Server.create ~cache_capacity:8 ~persist_dir:dir ()) trace with
        | [ run; P.Stats_reply { phits; pcorrupt; _ } ] ->
          (P.print_response run, (phits, pcorrupt))
        | _ -> Alcotest.fail "expected a run response and a stats reply"
      in
      let cold, _ = answer () in
      rebrand_every_entry dir;
      let foreign, (phits, pcorrupt) = answer () in
      check_string "another build's entry answers as a fresh compile" cold foreign;
      check_int "another build's entry serves no hit" 0 phits;
      check_int "another build's entry is counted corrupt" 1 pcorrupt;
      let healed, (phits, pcorrupt) = answer () in
      check_string "the recompiled entry answers the same" cold healed;
      check_int "the recompiled entry is this build's" 1 phits;
      check_int "and is not corrupt" 0 pcorrupt)

let loop_source =
  "global out: int[64];\n\n\
   kernel k() {\n\
  \  var j: int = 0;\n\
  \  while (j < 1000) {\n\
  \    j = j + 1;\n\
  \  }\n\
  \  out[tid()] = j;\n\
   }\n"

let test_server_deadline () =
  (* Server-default fuel: the loop kernel exhausts it; the server
     survives and the next healthy request still answers. *)
  let server = Server.create ~cache_capacity:8 ~fuel:50 () in
  let loop id = P.Run (P.make_request ~id ~warps:1 ~source:loop_source ()) in
  (match Server.submit server [ loop 0 ] with
  | [ P.Deadline { rid = 0; fuel = 50 } ] -> ()
  | other ->
    Alcotest.failf "expected deadline, got: %s"
      (String.concat " | " (List.map P.print_response other)));
  (* A per-request override lifts the default (0 = unlimited)... *)
  (match Server.submit server [ P.Run (P.make_request ~id:1 ~warps:1 ~deadline:0 ~source:loop_source ()) ] with
  | [ P.Ok_run _ ] -> ()
  | other ->
    Alcotest.failf "deadline=0 override should run to completion, got: %s"
      (String.concat " | " (List.map P.print_response other)));
  (* ... and tightens it on a server with no default. *)
  let unbounded = Server.create ~cache_capacity:8 () in
  (match Server.submit unbounded [ P.Run (P.make_request ~id:2 ~warps:1 ~deadline:50 ~source:loop_source ()) ] with
  | [ P.Deadline { rid = 2; fuel = 50 } ] -> ()
  | other ->
    Alcotest.failf "expected per-request deadline, got: %s"
      (String.concat " | " (List.map P.print_response other)));
  (* Deadline outcomes count as served (the launch consumed resources). *)
  check_int "deadline counts as served" 2 (Server.served server);
  match Server.submit server [ P.Run (P.make_request ~id:3 ~warps:1 ~source:ok_source ()) ] with
  | [ P.Ok_run _ ] -> ()
  | other ->
    Alcotest.failf "server did not survive a deadline: %s"
      (String.concat " | " (List.map P.print_response other))

(* The one-shot mapping: the same fuel exhaustion classifies to exit 9. *)
let test_deadline_exit_code () =
  let config = { Simt.Config.default with Simt.Config.n_warps = 1; fuel = 50 } in
  let options =
    {
      Core.Compile.mode = Core.Compile.Speculative Passes.Deconflict.Dynamic;
      coarsen = None;
      threshold = Core.Compile.Keep;
      cleanup = true;
      deconflict = true;
      lint = true;
      race = true;
      repair = Core.Compile.No_repair;
    }
  in
  match Core.Runner.run_source ~config options ~source:loop_source ~args:[] with
  | _ -> Alcotest.fail "expected the fuel budget to expire"
  | exception exn -> (
    match Core.Cli.classify exn with
    | Some outcome ->
      check_int "fuel exhaustion is exit 9" 9 (Core.Cli.exit_code outcome);
      check_string "server kind is deadline" "deadline"
        (fst (Server.outcome_kind_and_message outcome))
    | None -> Alcotest.fail "deadline exception not classified")

let test_server_drain () =
  let server = Server.create ~cache_capacity:8 ~retry_after:2 () in
  let run id = P.Run (P.make_request ~id ~warps:1 ~source:ok_source ()) in
  (* Work submitted before the shutdown completes and is answered;
     work after it bounces with the back-off hint. *)
  (match Server.submit server [ run 0; P.Shutdown; run 1 ] with
  | [ P.Ok_run { P.rid = 0; _ }; P.Bye; P.Overloaded { rid = 1; retry_after = 2 } ] -> ()
  | other ->
    Alcotest.failf "drain answered: %s"
      (String.concat " | " (List.map P.print_response other)));
  check_bool "server is draining" true (Server.draining server);
  (* Draining persists across calls; stats still answers. *)
  (match Server.submit server [ run 2; P.Stats 9 ] with
  | [ P.Overloaded { rid = 2; retry_after = 2 }; P.Stats_reply s ] ->
    check_int "stats answers while draining" 9 s.rid;
    check_int "drained launch was served before shutdown" 1 s.served
  | other ->
    Alcotest.failf "draining server answered: %s"
      (String.concat " | " (List.map P.print_response other)));
  (* Bounced runs were never admitted: the same kernel as run 0, yet no
     cache traffic, and not served. *)
  check_int "one miss only" 1 (Server.cache_misses server);
  check_int "no hits" 0 (Server.cache_hits server);
  check_int "one served" 1 (Server.served server)

(* ---- the registry differential: serve vs one-shot ---- *)

(* Every Table-2 workload through the server must answer with exactly
   the metrics and memory digest the one-shot pipeline produces for the
   same compile options and launch configuration. A second pass over
   the warm cache must hit on every request and answer, cache fields
   aside, byte-identically. *)
let test_registry_differential () =
  let server = Server.create ~cache_capacity:64 () in
  let serve (spec : Workloads.Spec.t) =
    let request =
      P.make_request ~id:0 ~warps:1 ?coarsen:spec.Workloads.Spec.coarsen
        ~args:spec.Workloads.Spec.args ~source:spec.Workloads.Spec.source ()
    in
    match Server.submit server [ P.Run request ] with
    | [ P.Ok_run r ] -> r
    | [ other ] ->
      Alcotest.failf "%s: server answered %s" spec.Workloads.Spec.name (P.print_response other)
    | other -> Alcotest.failf "%s: %d responses" spec.Workloads.Spec.name (List.length other)
  in
  let first = List.map serve Workloads.Registry.all in
  List.iter2
    (fun (spec : Workloads.Spec.t) served ->
      let options =
        {
          Core.Compile.mode = Core.Compile.Speculative Passes.Deconflict.Dynamic;
          coarsen = spec.Workloads.Spec.coarsen;
          threshold = Core.Compile.Keep;
          cleanup = true;
          deconflict = true;
          lint = true;
          race = true;
          repair = Core.Compile.No_repair;
        }
      in
      let config =
        { Simt.Config.default with
          Simt.Config.n_warps = 1;
          warp_size = 32;
          policy = Simt.Config.Most_threads;
          seed = 11;
          max_issues = 1_500_000 }
      in
      let oneshot =
        Core.Runner.run_source ~config options ~source:spec.Workloads.Spec.source
          ~args:spec.Workloads.Spec.args
      in
      let m = oneshot.Core.Runner.metrics in
      let name = spec.Workloads.Spec.name in
      check_int (name ^ " cycles") m.Simt.Metrics.cycles served.P.cycles;
      check_int (name ^ " issues") m.Simt.Metrics.issues served.P.issues;
      check_int (name ^ " active") m.Simt.Metrics.active_sum served.P.active;
      check_int (name ^ " finished") m.Simt.Metrics.threads_finished served.P.finished;
      check_int (name ^ " digest") (Simt.Memsys.digest oneshot.Core.Runner.memory)
        served.P.digest)
    Workloads.Registry.all first;
  let launch_fields (r : P.reply) =
    P.print_response (P.Ok_run { r with P.cache = P.Miss; hits = 0; misses = 0; evictions = 0 })
  in
  List.iter2
    (fun (spec : Workloads.Spec.t) first_reply ->
      let again = serve spec in
      let name = spec.Workloads.Spec.name in
      check_bool (name ^ " second pass hits the cache") true (again.P.cache = P.Hit);
      check_string (name ^ " second pass answers the same") (launch_fields first_reply)
        (launch_fields again))
    Workloads.Registry.all first

let tests =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "percent encoding round trips" `Quick test_encode_round_trip;
        Alcotest.test_case "bad escapes rejected" `Quick test_decode_rejects_bad_escapes;
        Alcotest.test_case "command round trips" `Quick test_command_round_trips;
        Alcotest.test_case "response round trips" `Quick test_response_round_trips;
        Alcotest.test_case "malformed commands rejected" `Quick test_malformed_commands;
      ] );
    ( "serve.cache",
      [
        Alcotest.test_case "fnv-1a digest pins" `Quick test_digest_pins;
        Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "lru eviction at capacity" `Quick test_cache_eviction_at_capacity;
        Alcotest.test_case "capacity 0 disables" `Quick test_cache_capacity_zero_disabled;
        Alcotest.test_case "failed builds never cached" `Quick test_cache_failed_build_not_cached;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "hit after miss with identical reply" `Quick
          test_server_hit_after_miss;
        Alcotest.test_case "eviction under capacity pressure" `Quick test_server_eviction;
        Alcotest.test_case "error responses carry the 0-8 codes" `Quick test_server_error_codes;
        Alcotest.test_case "stats and malformed lines answer in place" `Quick
          test_server_stats_and_lines;
        Alcotest.test_case "the channel front end answers a run before the next line" `Quick
          test_channel_answers_before_next_line;
        Alcotest.test_case "cache hit serves the identical artifact" `Quick
          test_server_hit_serves_identical_artifact;
        Alcotest.test_case "full registry matches the one-shot pipeline" `Slow
          test_registry_differential;
      ] );
    ( "serve.robustness",
      [
        Alcotest.test_case "persist round trip" `Quick test_persist_round_trip;
        Alcotest.test_case "persist corruption degrades to a miss" `Quick
          test_persist_corruption_degrades_to_miss;
        Alcotest.test_case "restart answers byte-identical from the store" `Quick
          test_server_persist_restart;
        Alcotest.test_case "an entry another build wrote is a counted miss" `Quick
          test_persist_other_build_is_a_miss;
        Alcotest.test_case "deadlines answer and the server survives" `Quick
          test_server_deadline;
        Alcotest.test_case "fuel exhaustion is exit 9 one-shot" `Quick test_deadline_exit_code;
        Alcotest.test_case "shutdown drains then bounces with retry-after" `Quick
          test_server_drain;
        Alcotest.test_case "stats do not depend on why a run misses: one store load each"
          `Quick test_stats_one_load_per_miss;
      ] );
  ]
