type t = { counts : (string * int, int) Hashtbl.t }

let empty () = { counts = Hashtbl.create 64 }

let record t ~func ~block ~count =
  let key = (func, block) in
  let existing = Option.value (Hashtbl.find_opt t.counts key) ~default:0 in
  Hashtbl.replace t.counts key (existing + count)

let count t ~func ~block = Option.value (Hashtbl.find_opt t.counts (func, block)) ~default:0

let pp ppf t =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts [] in
  List.iter
    (fun ((func, block), c) -> Format.fprintf ppf "%s/bb%d: %d@." func block c)
    (List.sort compare entries)
