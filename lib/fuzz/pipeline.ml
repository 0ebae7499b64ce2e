module T = Ir.Types

type mode = Baseline | Specrecon

let mode_name = function Baseline -> "baseline" | Specrecon -> "specrecon"

exception Stage_error of string * string

type staged = {
  program : T.program;
  linear : Ir.Linear.t;
  decoded : Ir.Decoded.t;
  resolutions : int;
  lint : Analysis.Barrier_safety.finding list;
  race : Analysis.Race_safety.finding list;
  speculative : Analysis.Barrier_safety.speculative list;
}

let stage name f =
  match f () with
  | v -> v
  | exception Failure msg -> raise (Stage_error (name, msg))
  | exception Front.Lower.Lower_error (p, msg) ->
    raise (Stage_error (name, Format.asprintf "%a: %s" Front.Ast.pp_pos p msg))

let verify name program =
  match Ir.Verifier.check_program program with
  | [] -> ()
  | errors ->
    let rendered =
      String.concat "; " (List.map (Format.asprintf "%a" Ir.Verifier.pp_error) errors)
    in
    raise (Stage_error ("verify:" ^ name, rendered))

let compile ?(deconflict = true) ?(deconflict_call_waits = true) ~mode ast =
  let program = stage "lower" (fun () -> Front.Lower.lower ast) in
  verify "lower" program;
  let resolutions, speculative =
    match mode with
    | Baseline ->
      Core.Compile.strip_hints program;
      let divergence = Analysis.Divergence.run program in
      ignore (stage "pdom_sync" (fun () -> Passes.Pdom_sync.run program divergence));
      verify "pdom_sync" program;
      (0, [])
    | Specrecon ->
      let applied = stage "specrecon" (fun () -> Passes.Specrecon.run program) in
      verify "specrecon" program;
      let interproc = stage "interproc" (fun () -> Passes.Interproc.run program) in
      verify "interproc" program;
      let divergence = Analysis.Divergence.run program in
      let pdom = stage "pdom_sync" (fun () -> Passes.Pdom_sync.run program divergence) in
      verify "pdom_sync" program;
      let speculative = Core.Compile.speculative_meta ~applied ~interproc in
      if deconflict then begin
        let priority = Core.Compile.make_priority ~applied ~interproc ~pdom in
        let report =
          stage "deconflict" (fun () ->
              Passes.Deconflict.run ~model_call_waits:deconflict_call_waits program
                ~strategy:Passes.Deconflict.Dynamic ~priority)
        in
        verify "deconflict" program;
        (List.length report.Passes.Deconflict.resolutions, speculative)
      end
      else (0, speculative)
  in
  ignore (stage "cleanup" (fun () -> Passes.Cleanup.run program));
  verify "cleanup" program;
  (* srlint runs as its own stage but never raises: the oracles need the
     findings as data, to compare against what the simulator does. *)
  let lint = stage "srlint" (fun () -> Analysis.Barrier_safety.check ~speculative program) in
  (* srrace likewise: findings are oracle data, never an error. The
     race oracles compare per mode, so no PDOM diffing here — a finding
     present only under Specrecon is visible as exactly that. *)
  let race = stage "srrace" (fun () -> Analysis.Race_safety.check program) in
  let linear = stage "linearize" (fun () -> Ir.Linear.linearize program) in
  let decoded = stage "decode" (fun () -> Ir.Decoded.decode linear) in
  { program; linear; decoded; resolutions; lint; race; speculative }
