type 'ev t = {
  rng : Splitmix.t option; (* a generative plan's stream; None when replaying *)
  recorded : (int, 'ev) Hashtbl.t array; (* a replay plan's events, by channel then step *)
  steps : int array;
  mutable applied_rev : 'ev list;
}

let make ~channels rng =
  {
    rng;
    recorded = Array.init channels (fun _ -> Hashtbl.create 16);
    steps = Array.make channels 0;
    applied_rev = [];
  }

let generate ~channels rng = make ~channels (Some rng)

let replay ~channels ~key events =
  let t = make ~channels None in
  List.iter
    (fun ev ->
      let channel, step = key ev in
      Hashtbl.replace t.recorded.(channel) step ev)
    events;
  t

let events t = List.rev t.applied_rev

let next t channel =
  let step = t.steps.(channel) in
  t.steps.(channel) <- step + 1;
  step

let rng t = t.rng
let lookup t channel step = Hashtbl.find_opt t.recorded.(channel) step

let record t = function
  | Some ev as applied ->
    t.applied_rev <- ev :: t.applied_rev;
    applied
  | None -> None

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
