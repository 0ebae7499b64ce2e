(* Compile identity: digests of everything a compile emits that a user
   or an oracle can see — the decoded listing (Ir.Decoded.pp) and the
   srlint and srrace machine lines — over four source sets, each
   compiled in six modes with lint demoted to warnings. The two modes
   with deconfliction off ship conflicting placements on purpose, so
   srlint reports findings there and its Rule 4 and waits-for cycle
   paths are covered too.

   The digests pin the compile pipeline's observable output: a change
   meant to make compile faster must leave every one of them as it is.
   A change meant to alter compiled code re-pins them, and says so. *)

module C = Core.Compile

let modes =
  [
    ("baseline", C.baseline);
    ("specrecon", C.speculative);
    ("specrecon-static", { C.speculative with C.mode = C.Speculative Passes.Deconflict.Static });
    ("auto", C.automatic);
    ("specrecon-nodeconflict", { C.speculative with C.deconflict = false });
    ("auto-nodeconflict", { C.automatic with C.deconflict = false });
  ]

(* The fingerprint of one compile. Lint warnings also go to stderr;
   Alcotest keeps them in the test's log. *)
let fingerprint options ~source =
  match C.compile { options with C.lint = false } ~source with
  | c ->
    String.concat "\n"
      [
        Format.asprintf "%a" Ir.Decoded.pp c.C.decoded;
        Analysis.Barrier_safety.render c.C.lint_findings;
        Analysis.Race_safety.render c.C.race_findings;
      ]
  | exception e -> "error: " ^ Printexc.to_string e

(* [sources] are (label, coarsen, text) triples. *)
let digest_set sources =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (label, coarsen, source) ->
      List.iter
        (fun (mode, options) ->
          Buffer.add_string buf (Printf.sprintf "== %s %s\n" label mode);
          Buffer.add_string buf (fingerprint { options with C.coarsen } ~source);
          Buffer.add_char buf '\n')
        modes)
    sources;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let registry_sources () =
  List.map
    (fun (s : Workloads.Spec.t) -> Workloads.Spec.(s.name, s.coarsen, s.source))
    Workloads.Registry.all

let corpus_sources () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simt")
  |> List.sort compare
  |> List.map (fun f ->
         (f, None, In_channel.with_open_bin (Filename.concat "corpus" f) In_channel.input_all))

let fuzz_sources () =
  List.init 200 (fun i ->
      let case = Fuzz.Gen.generate ~seed:17 i in
      (Printf.sprintf "fuzz-%d" i, None, Front.Pretty.to_string case.Fuzz.Gen.ast))

let cold_path_sizes = [ 10; 20; 40; 80; 160; 320 ]

let cold_path_sources () =
  List.map
    (fun n -> (Printf.sprintf "cold-%d" n, None, Workloads.Cold_path.source ~salt:17 ~n))
    cold_path_sizes

let pinned name sources expected () =
  Alcotest.check Alcotest.string (name ^ " digest") expected (digest_set (sources ()))

let tests =
  [
    ( "identity.compile",
      [
        Alcotest.test_case "registry x 6 modes" `Slow
          (pinned "registry" registry_sources "18c08c0f37cb49af60d8d06f472cef21");
        Alcotest.test_case "corpus x 6 modes" `Slow
          (pinned "corpus" corpus_sources "c73ed4bac92a27b29a7d9de1c5cdfd01");
        Alcotest.test_case "fuzz seed 17 (200) x 6 modes" `Slow
          (pinned "fuzz" fuzz_sources "8be4e3e8dd819ca1a599ff6b5093bd29");
        Alcotest.test_case "cold_path 10-320 x 6 modes" `Slow
          (pinned "cold_path" cold_path_sources "87e085f048a3a5ea570d993bc963b2af");
      ] );
  ]
