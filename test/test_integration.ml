(* End-to-end integration tests: randomized structured kernels compiled
   under every mode must agree bit-for-bit and never deadlock; the
   experiment plumbing must produce paper-shaped data. *)

module T = Ir.Types
module G = QCheck2.Gen

let check = Alcotest.check
let check_bool = check Alcotest.bool

(* ---- random structured program generator ----

   Generates kernels from the divergence grammar the paper targets:
   nested loops and conditionals over divergent values (rand, randint,
   tid), accumulating into a float and storing per-thread output. The
   property: all three compilation modes agree and terminate. *)

let indent depth = String.make (depth * 2) ' '

(* Loop variables need unique names per generated site (the language
   rejects same-scope redeclaration); a monotonic counter salts them. *)
let fresh_var =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s%d" prefix !n

let rec gen_stmts ~depth ~fuel : string list G.t =
  if fuel <= 0 then G.return []
  else
    G.(
      let* n = int_range 1 3 in
      let* stmts = list_repeat n (gen_stmt ~depth ~fuel:(fuel - 1)) in
      return (List.concat stmts))

and gen_stmt ~depth ~fuel : string list G.t =
  let pad = indent depth in
  let leaf =
    G.oneofl
      [
        [ pad ^ "acc = acc + 0.25;" ];
        [ pad ^ "acc = acc * 0.9 + 0.1;" ];
        [ pad ^ "acc = acc + sin(acc) * 0.125;" ];
        [ pad ^ "acc = acc + float(randint(4));" ];
        [ pad ^ "acc = fmin(acc, 100.0);" ];
      ]
  in
  if fuel <= 0 || depth >= 4 then leaf
  else
    G.(
      let* choice = int_range 0 9 in
      match choice with
      | 0 | 1 ->
        (* divergent conditional *)
        let* body = gen_stmts ~depth:(depth + 1) ~fuel:(fuel - 1) in
        let* has_else = bool in
        let* else_body = gen_stmts ~depth:(depth + 1) ~fuel:(fuel - 1) in
        let* denom = int_range 2 4 in
        let then_part =
          (pad ^ Printf.sprintf "if (randint(%d) == 0) {" denom) :: body
        in
        if has_else then
          return (then_part @ [ pad ^ "} else {" ] @ else_body @ [ pad ^ "}" ])
        else return (then_part @ [ pad ^ "}" ])
      | 2 | 3 ->
        (* divergent-trip while loop with a structural bound *)
        let* body = gen_stmts ~depth:(depth + 1) ~fuel:(fuel - 1) in
        let* cap = int_range 3 10 in
        let v = fresh_var "w" in
        return
          ([
             pad ^ Printf.sprintf "var %s: int = 0;" v;
             pad ^ Printf.sprintf "while (%s < randint(%d) + 1) {" v cap;
           ]
          @ body
          @ [ pad ^ Printf.sprintf "  %s = %s + 1;" v v; pad ^ "}" ])
      | 4 | 5 ->
        (* uniform for loop *)
        let* body = gen_stmts ~depth:(depth + 1) ~fuel:(fuel - 1) in
        let* trip = int_range 2 6 in
        let v = fresh_var "i" in
        return
          ((pad ^ Printf.sprintf "for %s in 0 .. %d {" v trip) :: body @ [ pad ^ "}" ])
      | _ -> leaf)

(* Optionally turn the first generated while-loop into a predicted
   reconvergence region: label its body and add the Predict up front, so
   the speculative pipeline exercises real user hints on random
   programs. *)
let add_prediction body =
  let rec annotate = function
    | [] -> None
    | line :: rest when String.length (String.trim line) > 6
                        && String.sub (String.trim line) 0 6 = "while " ->
      Some ((line ^ "\n" ^ "      Lp:") :: rest)
    | line :: rest -> Option.map (fun r -> line :: r) (annotate rest)
  in
  match annotate body with
  | Some annotated -> ("  predict Lp;" :: annotated, true)
  | None -> (body, false)

let gen_kernel : string G.t =
  G.(
    let* body = gen_stmts ~depth:1 ~fuel:4 in
    let* want_hint = bool in
    let body, _ = if want_hint then add_prediction body else (body, false) in
    return
      (String.concat "\n"
         ([ "global out: float[64];"; "kernel k() {"; "  var acc: float = float(lane());" ]
         @ body
         @ [ "  out[tid()] = acc;"; "}" ])))

let config = { Simt.Config.default with Simt.Config.n_warps = 1; max_issues = 2_000_000 }

let image (o : Core.Runner.outcome) =
  Simt.Memsys.dump o.Core.Runner.memory ~base:0 ~len:(Simt.Memsys.size o.Core.Runner.memory)

let prop_modes_agree =
  QCheck2.Test.make ~name:"random kernels: all modes agree, none deadlock" ~count:60
    ~print:(fun src -> src) gen_kernel (fun src ->
      let run options = Core.Runner.run_source ~config options ~source:src ~args:[] in
      let baseline = run Core.Compile.baseline in
      let speculative = run Core.Compile.speculative in
      let automatic = run Core.Compile.automatic in
      let none = run { Core.Compile.baseline with Core.Compile.mode = Core.Compile.No_sync } in
      image baseline = image speculative
      && image baseline = image automatic
      && image baseline = image none
      && baseline.Core.Runner.metrics.Simt.Metrics.threads_finished = 32)

let prop_static_deconfliction_agrees =
  QCheck2.Test.make ~name:"random kernels: static deconfliction agrees too" ~count:30
    ~print:(fun src -> src) gen_kernel (fun src ->
      let run options = Core.Runner.run_source ~config options ~source:src ~args:[] in
      let dynamic = run Core.Compile.speculative in
      let static =
        run
          {
            Core.Compile.speculative with
            Core.Compile.mode = Core.Compile.Speculative Passes.Deconflict.Static;
          }
      in
      image dynamic = image static)

(* ---- experiment plumbing ---- *)

let test_measure_one_improves () =
  let spec = Workloads.Registry.find "pathtracer" in
  let ms = Core.Experiments.measure_table2 () in
  ignore spec;
  let row =
    List.find (fun (m : Core.Experiments.app_measurement) -> m.name = "pathtracer") ms
  in
  check_bool "pathtracer improves" true
    (Core.Runner.efficiency row.Core.Experiments.optimized
    > Core.Runner.efficiency row.Core.Experiments.baseline)

let test_fig9_shapes () =
  (* Small sweep: PathTracer prefers the full barrier; XSBench peaks at a
     small threshold (§5.3). *)
  let series = Core.Experiments.figure9 ~thresholds:[ 2; 32 ] () in
  let find name =
    List.find (fun (s : Core.Experiments.fig9_series) -> s.subject = name) series
  in
  let speedup_at (s : Core.Experiments.fig9_series) k =
    (List.find (fun (p : Core.Experiments.fig9_point) -> p.threshold = k) s.points)
      .Core.Experiments.speedup
  in
  let pt = find "pathtracer" and xs = find "xsbench" in
  check_bool "pathtracer best at full barrier" true (speedup_at pt 32 > speedup_at pt 2);
  check_bool "xsbench best at small threshold" true (speedup_at xs 2 > speedup_at xs 32);
  (* efficiency rises with the threshold for both *)
  let eff_at (s : Core.Experiments.fig9_series) k =
    (List.find (fun (p : Core.Experiments.fig9_point) -> p.threshold = k) s.points)
      .Core.Experiments.efficiency
  in
  check_bool "xsbench efficiency rises with threshold" true (eff_at xs 32 > eff_at xs 2)

let test_fig10_parity () =
  let rows = Core.Experiments.figure10 () in
  List.iter
    (fun (r : Core.Experiments.fig10_row) ->
      match r.Core.Experiments.matches_annotated with
      | Some ok ->
        check_bool (r.Core.Experiments.app ^ ": automatic matches annotated") true ok
      | None -> ())
    rows

let test_profile_guided_auto () =
  (* §4.5: profile guidance replaces the static trip-count guesses; on
     meiyamd5 it must find the same loop-merge opportunity and win. *)
  let spec = Workloads.Registry.find "meiyamd5" in
  let baseline = Core.Runner.run_spec Core.Compile.baseline spec in
  let options =
    {
      Core.Compile.automatic with
      Core.Compile.mode =
        Core.Compile.Automatic
          {
            params = Passes.Auto_detect.default_params;
            strategy = Passes.Deconflict.Dynamic;
            profile = Some (Core.Runner.profile baseline);
          };
    }
  in
  let guided = Core.Runner.run_spec options spec in
  check_bool "profile-guided detection found candidates" true
    (guided.compiled.Core.Compile.candidates <> []);
  check_bool "profile-guided compilation wins" true
    (Core.Runner.speedup ~baseline ~optimized:guided > 1.05)

let test_funnel_shape () =
  let f = Core.Experiments.corpus_funnel ~seed:520 ~count:130 () in
  check_bool "funnel narrows" true
    (f.Core.Experiments.total > f.Core.Experiments.low_efficiency
    && f.Core.Experiments.low_efficiency >= f.Core.Experiments.detected
    && f.Core.Experiments.detected >= f.Core.Experiments.significant);
  check_bool "some detected" true (f.Core.Experiments.detected > 0)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "integration.random-programs",
      [ qtest ~long:false prop_modes_agree; qtest ~long:false prop_static_deconfliction_agrees ]
    );
    ( "integration.experiments",
      [
        Alcotest.test_case "pathtracer improves" `Slow test_measure_one_improves;
        Alcotest.test_case "figure 9 shapes" `Slow test_fig9_shapes;
        Alcotest.test_case "figure 10 parity" `Slow test_fig10_parity;
        Alcotest.test_case "profile-guided detection" `Slow test_profile_guided_auto;
        Alcotest.test_case "funnel narrows" `Slow test_funnel_shape;
      ] );
  ]
