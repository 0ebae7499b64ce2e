(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name, start and stop on the
   monotonic clock, the span that was open when it started (its parent)
   and the id of the benchmark op it belongs to. Each op also gets one
   note: its label and the counts measured at its boundary, so spans can
   be grouped by input and turned into per-issue costs. Everything is
   kept in memory and written out once, when the run ends, so a span
   costs two clock reads and one allocation. *)

type span = { id : int; name : string; start : int64; stop : int64; parent : int; op : int }

type note = { note_op : int; label : string; counts : (string * int) list }

type t = {
  origin : int64;
  mutable finished : span list; (* newest first *)
  mutable notes : note list; (* newest first *)
  mutable next_id : int;
  mutable current : int; (* innermost open span, -1 at top level *)
  mutable op : int;
}

let now () = Monotonic_clock.now ()

let create () = { origin = now (); finished = []; notes = []; next_id = 0; current = -1; op = -1 }

let set_op t op = t.op <- op

let note t ~label counts = t.notes <- { note_op = t.op; label; counts } :: t.notes

let record t name f =
  let id = t.next_id in
  let parent = t.current in
  t.next_id <- id + 1;
  t.current <- id;
  let start = now () in
  let close () =
    let stop = now () in
    t.current <- parent;
    t.finished <- { id; name; start; stop; parent; op = t.op } :: t.finished
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* [wrap (Some t) name f] records [f] as a span; [wrap None] just calls
   it, so untraced code pays nothing. *)
let wrap t name f = match t with None -> f () | Some t -> record t name f

let seconds (s : span) = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9

(* Total seconds per span name. *)
let totals t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0 in
      Hashtbl.replace tbl s.name (prev +. seconds s))
    t.finished;
  tbl

(* The ["ops"] and ["spans"] members of the trace file. Spans are ordered
   by id; times are microseconds since the recorder was created; a root
   span has parent -1. *)
let output_json oc t =
  let array key items print =
    Printf.fprintf oc "\"%s\": [" key;
    List.iteri
      (fun i x ->
        output_string oc (if i = 0 then "\n  " else ",\n  ");
        print x)
      items;
    output_string oc "\n]"
  in
  array "ops" (List.rev t.notes) (fun n ->
      Printf.fprintf oc "{\"op\": %d, \"label\": %S%s}" n.note_op n.label
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %S: %d" k v) n.counts)));
  output_string oc ",\n";
  let us x = Int64.to_float (Int64.sub x t.origin) /. 1e3 in
  array "spans"
    (List.sort (fun a b -> Int.compare a.id b.id) t.finished)
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d, \"op\": %d}"
        s.id s.name (us s.start) (us s.stop) s.parent s.op)
