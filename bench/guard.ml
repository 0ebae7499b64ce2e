(* The perf guard behind `dune build @perf-guard`: compares the metric
   lines of three srbench runs, read from stdin, with one committed run
   of the same command:

     srbench --all --seed 17 --seconds 1   (three times, then)
     guard.exe BENCHMARK.json COMMITTED < their output

   Every line is "workload metric value unit". A metric whose
   BENCHMARK.json bound is 0 (the exact metrics), or which has no bound
   there, must print the committed bytes in every run. Every other metric
   is judged by its best run, which may be worse than the committed value
   by at most the metric's bound, in the direction its "better" field
   names. A shared machine slows runs down far more often than it speeds
   them up, so the best of three runs is the closest of them to what the
   code costs. The runs must print the same set of lines as the committed
   one. Exits 1 on any failure. *)

type bound = { higher_is_better : bool; bound : float }

(* BENCHMARK.json keeps one metric per line, and only the end-to-end
   metrics carry a bound, so every other line fails the scan. *)
let read_bounds path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         try
           Scanf.sscanf line " {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %f}"
             (fun name _unit better bound ->
               Some (name, { higher_is_better = better = "higher"; bound }))
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let failures = ref 0

let fail fmt =
  incr failures;
  Printf.printf ("perf-guard: FAIL " ^^ fmt ^^ "\n")

(* Lines keyed by (workload, metric), each with its text and value. *)
let read_lines what text =
  String.split_on_char '\n' text
  |> List.filter (fun line -> line <> "")
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ workload; metric; value; _unit ] when Option.is_some (float_of_string_opt value) ->
           Some ((workload, metric), (line, float_of_string value))
         | _ ->
           fail "%s: not a metric line: %s" what line;
           None)

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: guard.exe BENCHMARK.json COMMITTED < srbench-output";
    exit 2
  end;
  let bounds = read_bounds Sys.argv.(1) in
  let committed =
    read_lines Sys.argv.(2) (In_channel.with_open_text Sys.argv.(2) In_channel.input_all)
  in
  let current = read_lines "stdin" (In_channel.input_all stdin) in
  List.iter
    (fun (((workload, metric) as key), (committed_line, base)) ->
      let runs = List.filter_map (fun (k, run) -> if k = key then Some run else None) current in
      match (runs, List.assoc_opt metric bounds) with
      | [], _ -> fail "%s %s: missing from the runs" workload metric
      | (_, first) :: _, Some { higher_is_better; bound } when bound > 0.0 ->
        let pick = if higher_is_better then Float.max else Float.min in
        let best = List.fold_left (fun acc (_, v) -> pick acc v) first runs in
        let worse = (if higher_is_better then base -. best else best -. base) /. base in
        if worse > bound then
          fail "%s %s %g: %.1f%% worse than committed %g (bound %g%%)" workload metric best
            (100.0 *. worse) base (100.0 *. bound)
        else
          Printf.printf "perf-guard: ok %s %s %g (committed %g, %+.1f%% worse)\n" workload
            metric best base (100.0 *. worse)
      | _ -> (
        match List.find_opt (fun (line, _) -> line <> committed_line) runs with
        | Some (line, _) -> fail "%s %s: reads %S, committed %S" workload metric line committed_line
        | None -> Printf.printf "perf-guard: ok %s (exact)\n" committed_line))
    committed;
  List.iter
    (fun (workload, metric) ->
      if not (List.mem_assoc (workload, metric) committed) then
        fail "%s %s: not in the committed run" workload metric)
    (List.sort_uniq compare (List.map fst current));
  if !failures > 0 then begin
    Printf.printf "perf-guard: FAILED, %d problem(s)\n" !failures;
    exit 1
  end;
  Printf.printf "perf-guard: ok, %d lines\n" (List.length committed)
