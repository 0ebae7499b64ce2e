type 'ev source = Generate of Splitmix.t | Replay of (int * int, 'ev) Hashtbl.t

type 'ev t = { source : 'ev source; steps : int array; mutable applied_rev : 'ev list }

let generate ~channels rng =
  { source = Generate rng; steps = Array.make channels 0; applied_rev = [] }

let replay ~channels ~key events =
  let tbl = Hashtbl.create 64 in
  List.iter (fun ev -> Hashtbl.replace tbl (key ev) ev) events;
  { source = Replay tbl; steps = Array.make channels 0; applied_rev = [] }

let events t = List.rev t.applied_rev

let consult t channel ~draw ~replay =
  let step = t.steps.(channel) in
  t.steps.(channel) <- step + 1;
  let applied =
    match t.source with
    | Generate rng -> draw rng step
    | Replay tbl -> Option.bind (Hashtbl.find_opt tbl (channel, step)) replay
  in
  Option.iter (fun ev -> t.applied_rev <- ev :: t.applied_rev) applied;
  applied

let trace_to_string fields events =
  let line ev =
    let kind, kvs = fields ev in
    String.concat " " ("fault" :: kind :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
    ^ "\n"
  in
  String.concat "" (List.map line events)

let parse_trace ~what of_fields text =
  let parse line =
    let fail () = failwith (Printf.sprintf "%s.parse_trace: malformed line %S" what line) in
    let field kv =
      match String.split_on_char '=' kv with
      | [ k; v ] -> (match int_of_string_opt v with Some n -> (k, n) | None -> fail ())
      | _ -> fail ()
    in
    match String.split_on_char ' ' (String.trim line) with
    | "fault" :: kind :: kvs -> (
      match of_fields kind (List.map field kvs) with Some ev -> ev | None -> fail ())
    | _ -> fail ()
  in
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && l.[0] <> '#')
  |> List.map parse
