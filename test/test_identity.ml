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

(* The fingerprint of one compile. With lint off the findings come back
   as data; nothing is printed. *)
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

(* The stage sequence as an observer sees it: each stage by name as it
   starts (a nested one as parent/child), and +name whenever [after]
   sees the program a stage rewrote. *)
let stage_sequence options ~source =
  let events = ref [] and open_stages = ref [] in
  let observe =
    {
      C.stage =
        (fun name f ->
          events := String.concat "/" (List.rev (name :: !open_stages)) :: !events;
          open_stages := name :: !open_stages;
          Fun.protect f ~finally:(fun () -> open_stages := List.tl !open_stages));
      after = (fun name _ -> events := ("+" ^ name) :: !events);
    }
  in
  ignore (C.compile ~observe options ~source);
  String.concat " " (List.rev !events)

(* Speculative findings a PDOM placement also has: the race stage
   rebuilds that placement to diff against. *)
let racy_source =
  "global outi: int[64];\nglobal share: int[128];\n\
   kernel k() {\n  share[tid()] = tid();\n  outi[tid()] = share[((tid() + 1) % 64)];\n}\n"

let test_stage_sequence () =
  let repro = In_channel.with_open_bin "corpus/srfuzz_42_114_deadlock.simt" In_channel.input_all in
  let check name options ~source want =
    Alcotest.check Alcotest.string name want (stage_sequence options ~source)
  in
  let front = "parse lower +lower detect +detect" in
  let speculative = front ^ " specrecon +specrecon interproc +interproc pdom_sync +pdom_sync" in
  let back = "verify lint race linearize decode" in
  check "baseline" C.baseline ~source:repro
    (String.concat " " [ front; "pdom_sync +pdom_sync cleanup +cleanup"; back ]);
  let deconflicted = String.concat " " [ speculative; "deconflict +deconflict cleanup +cleanup"; back ] in
  check "specrecon" C.speculative ~source:repro deconflicted;
  check "auto" C.automatic ~source:repro deconflicted;
  check "specrecon without deconfliction"
    { C.speculative with C.deconflict = false; lint = false }
    ~source:repro
    (String.concat " " [ speculative; "cleanup +cleanup"; back ]);
  check "accepted --fix"
    { C.speculative with
      C.deconflict = false;
      repair = C.Repair { dry_run = false; max_edits = Analysis.Barrier_repair.default_max_edits } }
    ~source:repro
    (String.concat " "
       [ speculative; "cleanup +cleanup verify lint lint/repair +repair race linearize decode" ]);
  check "coarsened racy specrecon" { C.speculative with C.coarsen = Some 2 } ~source:racy_source
    "parse coarsen lower +lower detect +detect specrecon +specrecon interproc +interproc \
     pdom_sync +pdom_sync deconflict +deconflict cleanup +cleanup verify lint race \
     race/race.rebuild linearize decode"

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
        Alcotest.test_case "stage sequence pinned" `Quick test_stage_sequence;
      ] );
  ]
