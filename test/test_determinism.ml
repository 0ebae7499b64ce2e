(* Experiment outputs must not depend on the worker-domain count: the
   corpus funnel fans compilation and simulation out through
   {!Support.Domain_pool}, and the determinism contract (§4.2) extends
   to the rendered report — byte-identical whether one domain or four
   do the work. *)

let render_funnel domains =
  Test_support.with_domains domains (fun () ->
      Format.asprintf "%a" Core.Experiments.pp_funnel
        (Core.Experiments.corpus_funnel ~seed:7 ~count:12 ()))

let test_funnel_domain_independence () =
  Alcotest.(check string) "byte-identical under 1 vs 4 domains" (render_funnel 1)
    (render_funnel 4)

(* The srserved engine answers one command at a time on the calling
   domain, so the determinism it owes is to its front ends: a mixed
   trace — repeated kernels, distinct kernels, failures, stats,
   malformed lines — gets the same response stream however it arrives. *)
let serve_trace =
  let module P = Serve.Protocol in
  let registry =
    List.concat_map
      (fun (spec : Workloads.Spec.t) ->
        let req id =
          P.print_command
            (P.Run
               (P.make_request ~id ~warps:1 ?coarsen:spec.Workloads.Spec.coarsen
                  ~args:spec.Workloads.Spec.args ~source:spec.Workloads.Spec.source ()))
        in
        [ req 0; req 1 ])
      Workloads.Registry.all
  in
  let fuzzed =
    List.init 6 (fun i ->
        let case = Fuzz.Gen.generate ~seed:1303 i in
        P.print_command
          (P.Run
             (P.make_request ~id:(100 + i) ~init:"data"
                ~source:(Front.Pretty.to_string case.Fuzz.Gen.ast)
                ())))
  in
  let failing =
    [
      P.print_command (P.Run (P.make_request ~id:200 ~source:"kernel k( {" ()));
      "not a protocol line";
    ]
  in
  registry @ fuzzed @ failing @ [ P.print_command (P.Stats 300) ]

let render_serve trace =
  let server = Serve.Server.create ~cache_capacity:32 () in
  String.concat "\n"
    (List.map
       (fun line -> Serve.Protocol.print_response (Serve.Server.answer_line server line))
       trace)

(* The trace's bytes with every line newline-terminated. *)
let terminated = String.concat "" (List.map (fun l -> l ^ "\n") serve_trace)

(* The channel front end (srserved over stdin or --trace) reads [input]
   as request lines. *)
let render_channel input_bytes =
  let input = Filename.temp_file "srchannel" ".in" in
  let output = Filename.temp_file "srchannel" ".out" in
  Fun.protect ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
  @@ fun () ->
  Out_channel.with_open_text input (fun oc -> output_string oc input_bytes);
  In_channel.with_open_text input (fun ic ->
      Out_channel.with_open_text output (fun oc ->
          Serve.Transport.serve_channel (Serve.Server.create ~cache_capacity:32 ()) ic oc));
  In_channel.with_open_text output In_channel.input_all

let test_serve_channel_matches_engine () =
  (* one answer per line, matching the engine's *)
  Alcotest.(check string) "the channel front end matches the engine"
    (render_serve serve_trace ^ "\n")
    (render_channel terminated)

(* And once more over the wire: the same trace through a
   Serve.Transport socket server must come back byte-identical to the
   engine's answers — the select-loop transport adds no nondeterminism
   of its own. A second connection then shares the warm server: its
   first run must hit the cache the first connection filled. The server
   runs in a spawned domain rather than a forked child: OCaml 5 forbids
   Unix.fork in any process that ever created a domain, and the funnel
   case in this binary spawns domain pools (the forked lifecycle — exit
   0 on drain, kill -9 restarts — is covered by srfuzz --serve-chaos). *)
let with_socket_server f =
  let dir = Filename.temp_file "srsockdet" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let socket_path = Filename.concat dir "det.sock" in
  let server_domain =
    Domain.spawn (fun () ->
        Serve.Transport.serve (Serve.Server.create ~cache_capacity:32 ()) ~socket_path ())
  in
  let result = f socket_path in
  (* [f] ends with a shutdown, which drains the whole service, so serve
     returns. *)
  Domain.join server_domain;
  result

let shutdown c =
  Serve.Client.round_trip c [ Serve.Protocol.print_command Serve.Protocol.Shutdown ]

let render_socket () =
  with_socket_server @@ fun socket_path ->
  let c = Serve.Client.connect socket_path in
  let responses = Serve.Client.round_trip c serve_trace in
  let c2 = Serve.Client.connect socket_path in
  (match Serve.Protocol.parse_response (Serve.Client.rpc c2 (List.hd serve_trace)) with
  | Ok (Serve.Protocol.Ok_run r) ->
    Alcotest.(check bool) "a second connection hits the shared cache" true
      (r.Serve.Protocol.cache = Serve.Protocol.Hit)
  | _ -> Alcotest.fail "a second connection's run got no ok answer");
  Serve.Client.close c2;
  let bye = shutdown c in
  Serve.Client.close c;
  String.concat "\n" (responses @ bye)

let test_socket_matches_engine () =
  (* The transport matches the in-process engine answer for answer,
     plus the trailing bye the socket's shutdown earns. *)
  Alcotest.(check string) "socket stream matches the engine"
    (render_serve serve_trace ^ "\nbye")
    (render_socket ())

(* One rule for a torn request: the same trace with its last line left
   unterminated gets the same stream over a channel and over a socket
   whose client half-closes after the last byte. Both front ends drop the
   torn line at end of input, so both answer exactly the lines before
   it. *)
let test_torn_tail_one_rule () =
  let torn = String.sub terminated 0 (String.length terminated - 1) in
  let socket =
    with_socket_server @@ fun socket_path ->
    let c = Serve.Client.connect socket_path in
    let oc = Unix.out_channel_of_descr (Serve.Client.fd c) in
    output_string oc torn;
    flush oc;
    Unix.shutdown (Serve.Client.fd c) Unix.SHUTDOWN_SEND;
    let rec read acc =
      match Serve.Client.recv c 1 with
      | [ line ] -> read (acc ^ line ^ "\n")
      | _ -> acc
      | exception End_of_file -> acc
    in
    let stream = read "" in
    Serve.Client.close c;
    let c2 = Serve.Client.connect socket_path in
    ignore (shutdown c2);
    Serve.Client.close c2;
    stream
  in
  let answered = List.filteri (fun i _ -> i < List.length serve_trace - 1) serve_trace in
  let want = render_serve answered ^ "\n" in
  Alcotest.(check string) "the channel drops the torn line" want (render_channel torn);
  Alcotest.(check string) "the socket drops the torn line" want socket

let tests =
  [
    ( "determinism.domains",
      [
        Alcotest.test_case "corpus funnel under 1 vs 4 domains" `Slow
          test_funnel_domain_independence;
        Alcotest.test_case "srserved response stream over a channel matches the engine" `Slow
          test_serve_channel_matches_engine;
        Alcotest.test_case "socket transport stream matches the engine" `Slow
          test_socket_matches_engine;
        Alcotest.test_case "torn last line dropped by both front ends" `Slow
          test_torn_tail_one_rule;
      ] );
  ]
