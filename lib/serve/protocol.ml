(* Wire protocol for srserved. One line per request/response; fields are
   percent-encoded key=value pairs. Printing is canonical (fixed field
   order, optional fields omitted when absent) so a response stream is
   byte-identical whenever the payloads are — the property the serve
   determinism tests and the serve-mismatch oracle compare on. *)

(* ---- numbers ---- *)

(* The one number check: digits only, as the printers emit them. Hex
   fields are bare hex digits; int fields are an optional '-' and
   decimal digits. OCaml's int_of_string alone also takes "0x10", "1_0",
   "+2" and "0b11", reading a field as a number it does not spell. *)
let parse_int ?(hex = false) s =
  let digit c =
    (c >= '0' && c <= '9') || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')))
  in
  let digits =
    if (not hex) && String.starts_with ~prefix:"-" s then String.sub s 1 (String.length s - 1)
    else s
  in
  if digits <> "" && String.for_all digit digits then
    int_of_string_opt (if hex then "0x" ^ s else s)
  else None

(* ---- percent encoding ---- *)

let must_escape c = c = '%' || c = ' ' || c = '\t' || c = '\r' || c = '\n'

let encode s =
  if String.for_all (fun c -> not (must_escape c)) s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if must_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let decode s =
  match String.index_opt s '%' with
  | None -> s
  | Some _ ->
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] <> '%' then Buffer.add_char buf s.[!i]
       else begin
         if !i + 2 >= n then failwith "truncated %-escape";
         let hex = String.sub s (!i + 1) 2 in
         match parse_int ~hex:true hex with
         | Some code -> Buffer.add_char buf (Char.chr code); i := !i + 2
         | None -> failwith (Printf.sprintf "bad %%-escape %%%s" hex)
       end);
      incr i
    done;
    Buffer.contents buf

(* ---- requests ---- *)

type request = {
  id : int;
  mode : string;
  policy : string;
  warps : int;
  warp_size : int;
  seed : int;
  coarsen : int option;
  threshold : int option;
  entry : string option;
  args : Ir.Types.value list;
  init : string;
  deadline : int option;
  source : string;
}

let modes = List.map fst Core.Compile.modes
let policies = List.map fst Simt.Config.policies
let inits = [ "none"; "data" ]

let make_request ~id ?(mode = "specrecon") ?(policy = "most-threads") ?(warps = 2)
    ?(warp_size = 32) ?(seed = 11) ?coarsen ?threshold ?entry ?(args = []) ?(init = "none")
    ?deadline ~source () =
  { id; mode; policy; warps; warp_size; seed; coarsen; threshold; entry; args; init; deadline;
    source }

type command = Run of request | Stats of int | Quit | Shutdown

(* Kernel arguments print tagged so the reader never guesses: ints as
   decimal, floats as C99 hex floats (%h), which are bit-exact and —
   always carrying a 'p' exponent — can never parse back as an int.
   Parsing takes exactly those spellings: a float is accepted only when
   printing it gives back the input. *)
let print_value = function
  | Ir.Types.I i -> string_of_int i
  | Ir.Types.F f -> Printf.sprintf "%h" f

let parse_value s =
  match parse_int s with
  | Some i -> Ok (Ir.Types.I i)
  | None -> (
    match float_of_string_opt s with
    | Some f when String.equal (Printf.sprintf "%h" f) s -> Ok (Ir.Types.F f)
    | _ -> Error (Printf.sprintf "bad kernel argument %S (expected int or float)" s))

let print_args args = String.concat "," (List.map print_value args)

let parse_args s =
  if s = "" then Ok []
  else
    List.fold_right
      (fun part acc ->
        match (acc, parse_value part) with
        | Error _, _ -> acc
        | _, Error e -> Error e
        | Ok vs, Ok v -> Ok (v :: vs))
      (String.split_on_char ',' s)
      (Ok [])

let print_command = function
  | Quit -> "quit"
  | Shutdown -> "shutdown"
  | Stats id -> Printf.sprintf "stats id=%d" id
  | Run r ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "run id=%d mode=%s policy=%s warps=%d warp-size=%d seed=%d" r.id r.mode
         r.policy r.warps r.warp_size r.seed);
    Option.iter (fun k -> Buffer.add_string buf (Printf.sprintf " coarsen=%d" k)) r.coarsen;
    Option.iter (fun k -> Buffer.add_string buf (Printf.sprintf " threshold=%d" k)) r.threshold;
    Option.iter (fun e -> Buffer.add_string buf (" entry=" ^ encode e)) r.entry;
    if r.args <> [] then Buffer.add_string buf (" args=" ^ print_args r.args);
    Buffer.add_string buf (" init=" ^ r.init);
    Option.iter (fun d -> Buffer.add_string buf (Printf.sprintf " deadline=%d" d)) r.deadline;
    Buffer.add_string buf (" source=" ^ encode r.source);
    Buffer.contents buf

(* ---- field scaffolding shared by command and response parsing ---- *)

exception Bad of string

let fields_of_words words =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun w ->
      if w <> "" then
        match String.index_opt w '=' with
        | None -> raise (Bad (Printf.sprintf "field %S is not key=value" w))
        | Some eq ->
          let key = String.sub w 0 eq in
          let value = String.sub w (eq + 1) (String.length w - eq - 1) in
          if Hashtbl.mem tbl key then raise (Bad (Printf.sprintf "duplicate field %S" key));
          Hashtbl.replace tbl key value)
    words;
  tbl

let take tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> Hashtbl.remove tbl key; Some v
  | None -> None

let require tbl key =
  match take tbl key with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing required field %S" key))

let int_field key v =
  match parse_int v with
  | Some i -> i
  | None -> raise (Bad (Printf.sprintf "field %s=%S is not an integer" key v))

let enum_field key allowed v =
  if List.mem v allowed then v
  else
    raise
      (Bad (Printf.sprintf "field %s=%S (expected one of %s)" key v (String.concat "|" allowed)))

let decode_field key v =
  try decode v with Failure msg -> raise (Bad (Printf.sprintf "field %s: %s" key msg))

let no_leftovers tbl =
  Hashtbl.iter (fun key _ -> raise (Bad (Printf.sprintf "unknown field %S" key))) tbl

let with_bad f = match f () with v -> Ok v | exception Bad msg -> Error msg

(* ---- command parsing ---- *)

let parse_run words =
  let tbl = fields_of_words words in
  let id = int_field "id" (require tbl "id") in
  let mode =
    match take tbl "mode" with Some v -> enum_field "mode" modes v | None -> "specrecon"
  in
  let policy =
    match take tbl "policy" with
    | Some v -> enum_field "policy" policies v
    | None -> "most-threads"
  in
  let warps = match take tbl "warps" with Some v -> int_field "warps" v | None -> 2 in
  let warp_size =
    match take tbl "warp-size" with Some v -> int_field "warp-size" v | None -> 32
  in
  let seed = match take tbl "seed" with Some v -> int_field "seed" v | None -> 11 in
  let coarsen = Option.map (int_field "coarsen") (take tbl "coarsen") in
  let threshold = Option.map (int_field "threshold") (take tbl "threshold") in
  let entry = Option.map (decode_field "entry") (take tbl "entry") in
  let args =
    match take tbl "args" with
    | None -> []
    | Some v -> (
      match parse_args (decode_field "args" v) with Ok vs -> vs | Error msg -> raise (Bad msg))
  in
  let init = match take tbl "init" with Some v -> enum_field "init" inits v | None -> "none" in
  let deadline =
    match Option.map (int_field "deadline") (take tbl "deadline") with
    | Some d when d < 0 -> raise (Bad (Printf.sprintf "field deadline=%d must be >= 0" d))
    | d -> d
  in
  let source = decode_field "source" (require tbl "source") in
  no_leftovers tbl;
  Run
    { id; mode; policy; warps; warp_size; seed; coarsen; threshold; entry; args; init; deadline;
      source }

let parse_command line =
  with_bad (fun () ->
      match String.split_on_char ' ' (String.trim line) with
      | [] | [ "" ] -> raise (Bad "empty request")
      | "quit" :: rest ->
        no_leftovers (fields_of_words rest);
        Quit
      | "shutdown" :: rest ->
        no_leftovers (fields_of_words rest);
        Shutdown
      | "stats" :: rest ->
        let tbl = fields_of_words rest in
        let id = match take tbl "id" with Some v -> int_field "id" v | None -> 0 in
        no_leftovers tbl;
        Stats id
      | "run" :: rest -> parse_run rest
      | head :: _ -> raise (Bad (Printf.sprintf "unknown request head %S" head)))

(* ---- responses ---- *)

type cache_status = Hit | Miss

type reply = {
  rid : int;
  cache : cache_status;
  hits : int;
  misses : int;
  evictions : int;
  cycles : int;
  issues : int;
  active : int;
  finished : int;
  digest : int;
}

type response =
  | Ok_run of reply
  | Error of { rid : int; code : int; kind : string; msg : string }
  | Overloaded of { rid : int; retry_after : int }
  | Deadline of { rid : int; fuel : int }
  | Stats_reply of {
      rid : int;
      hits : int;
      misses : int;
      evictions : int;
      entries : int;
      served : int;
      phits : int;
      pcorrupt : int;
    }
  | Bye

let print_response = function
  | Ok_run r ->
    Printf.sprintf
      "ok id=%d cache=%s hits=%d misses=%d evictions=%d cycles=%d issues=%d active=%d \
       finished=%d digest=%016x"
      r.rid
      (match r.cache with Hit -> "hit" | Miss -> "miss")
      r.hits r.misses r.evictions r.cycles r.issues r.active r.finished r.digest
  | Error { rid; code; kind; msg } ->
    Printf.sprintf "error id=%d code=%d kind=%s msg=%s" rid code kind (encode msg)
  | Overloaded { rid; retry_after } ->
    Printf.sprintf "overloaded id=%d retry-after=%d" rid retry_after
  | Deadline { rid; fuel } -> Printf.sprintf "deadline id=%d fuel=%d" rid fuel
  | Stats_reply { rid; hits; misses; evictions; entries; served; phits; pcorrupt } ->
    Printf.sprintf
      "stats id=%d hits=%d misses=%d evictions=%d entries=%d served=%d phits=%d pcorrupt=%d"
      rid hits misses evictions entries served phits pcorrupt
  | Bye -> "bye"

let parse_response line =
  with_bad (fun () ->
      match String.split_on_char ' ' (String.trim line) with
      | [] | [ "" ] -> raise (Bad "empty response")
      | "bye" :: rest ->
        no_leftovers (fields_of_words rest);
        Bye
      | "overloaded" :: rest ->
        let tbl = fields_of_words rest in
        let rid = int_field "id" (require tbl "id") in
        let retry_after = int_field "retry-after" (require tbl "retry-after") in
        no_leftovers tbl;
        Overloaded { rid; retry_after }
      | "deadline" :: rest ->
        let tbl = fields_of_words rest in
        let rid = int_field "id" (require tbl "id") in
        let fuel = int_field "fuel" (require tbl "fuel") in
        no_leftovers tbl;
        Deadline { rid; fuel }
      | "error" :: rest ->
        let tbl = fields_of_words rest in
        let rid = int_field "id" (require tbl "id") in
        let code = int_field "code" (require tbl "code") in
        let kind = require tbl "kind" in
        let msg = decode_field "msg" (require tbl "msg") in
        no_leftovers tbl;
        Error { rid; code; kind; msg }
      | "stats" :: rest ->
        let tbl = fields_of_words rest in
        let rid = int_field "id" (require tbl "id") in
        let hits = int_field "hits" (require tbl "hits") in
        let misses = int_field "misses" (require tbl "misses") in
        let evictions = int_field "evictions" (require tbl "evictions") in
        let entries = int_field "entries" (require tbl "entries") in
        let served = int_field "served" (require tbl "served") in
        let phits = int_field "phits" (require tbl "phits") in
        let pcorrupt = int_field "pcorrupt" (require tbl "pcorrupt") in
        no_leftovers tbl;
        Stats_reply { rid; hits; misses; evictions; entries; served; phits; pcorrupt }
      | "ok" :: rest ->
        let tbl = fields_of_words rest in
        let rid = int_field "id" (require tbl "id") in
        let cache =
          match require tbl "cache" with
          | "hit" -> Hit
          | "miss" -> Miss
          | other -> raise (Bad (Printf.sprintf "field cache=%S (expected hit|miss)" other))
        in
        let hits = int_field "hits" (require tbl "hits") in
        let misses = int_field "misses" (require tbl "misses") in
        let evictions = int_field "evictions" (require tbl "evictions") in
        let cycles = int_field "cycles" (require tbl "cycles") in
        let issues = int_field "issues" (require tbl "issues") in
        let active = int_field "active" (require tbl "active") in
        let finished = int_field "finished" (require tbl "finished") in
        let digest =
          let v = require tbl "digest" in
          match parse_int ~hex:true v with
          | Some d -> d
          | None -> raise (Bad (Printf.sprintf "field digest=%S is not hex" v))
        in
        no_leftovers tbl;
        Ok_run { rid; cache; hits; misses; evictions; cycles; issues; active; finished; digest }
      | head :: _ -> raise (Bad (Printf.sprintf "unknown response head %S" head)))
