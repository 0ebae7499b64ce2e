module Mask = Support.Mask

type t = {
  warp_size : int;
  participants : Mask.t array;
  waiting : Mask.t array;
  (* threshold.(b).(lane) and arrival.(b).(lane) are meaningful while
     lane is in waiting.(b); -1 encodes "no threshold" (a hard wait). *)
  threshold : int array array;
  arrival : int array array;
}

let create ~n_barriers ~warp_size =
  if n_barriers < 0 then invalid_arg "Barrier_unit.create: negative barrier count";
  {
    warp_size;
    participants = Array.make (max n_barriers 1) Mask.empty;
    waiting = Array.make (max n_barriers 1) Mask.empty;
    threshold = Array.init (max n_barriers 1) (fun _ -> Array.make warp_size (-1));
    arrival = Array.init (max n_barriers 1) (fun _ -> Array.make warp_size 0);
  }

let check t b lane =
  if b < 0 || b >= Array.length t.participants then
    invalid_arg (Printf.sprintf "Barrier_unit: barrier b%d out of range" b);
  if lane < 0 || lane >= t.warp_size then
    invalid_arg (Printf.sprintf "Barrier_unit: lane %d out of range" lane)

let join t b lane =
  check t b lane;
  t.participants.(b) <- Mask.add lane t.participants.(b)

let cancel t b lane =
  check t b lane;
  t.participants.(b) <- Mask.remove lane t.participants.(b);
  t.waiting.(b) <- Mask.remove lane t.waiting.(b)

let block t b lane ~now ~threshold =
  check t b lane;
  if not (Mask.mem lane t.participants.(b)) then
    invalid_arg (Printf.sprintf "Barrier_unit.block: lane %d not participating in b%d" lane b);
  t.waiting.(b) <- Mask.add lane t.waiting.(b);
  t.threshold.(b).(lane) <- threshold;
  t.arrival.(b).(lane) <- now

let withdraw_lane t lane =
  let affected = ref [] in
  Array.iteri
    (fun b p ->
      if Mask.mem lane p then begin
        t.participants.(b) <- Mask.remove lane p;
        t.waiting.(b) <- Mask.remove lane t.waiting.(b);
        affected := b :: !affected
      end)
    t.participants;
  List.rev !affected

let is_participant t b lane =
  check t b lane;
  Mask.mem lane t.participants.(b)

let participants t b = t.participants.(b)
let waiting t b = t.waiting.(b)

let fire_condition t b =
  let w = t.waiting.(b) and p = t.participants.(b) in
  if Mask.is_empty w then false
  else if Mask.equal w p then true
  else
    (* Soft-barrier rule: fire when at least one waiter's threshold is
       met by the number of blocked participants. The waiter count is
       loop-invariant, so take the popcount once. *)
    let arrived = Mask.count w in
    Mask.fold
      (fun lane acc ->
        let k = t.threshold.(b).(lane) in
        acc || (k >= 0 && arrived >= k))
      w false

let release t b =
  let released = t.waiting.(b) in
  t.participants.(b) <- Mask.diff t.participants.(b) released;
  t.waiting.(b) <- Mask.empty;
  Mask.iter (fun lane -> t.threshold.(b).(lane) <- -1) released;
  released

let fired t b = if fire_condition t b then Some (release t b) else None

let force_release t b =
  if Mask.is_empty t.waiting.(b) then None else Some (release t b)

let oldest_arrival t b =
  let w = t.waiting.(b) in
  if Mask.is_empty w then None
  else
    Some
      (Mask.fold
         (fun lane acc -> min acc t.arrival.(b).(lane))
         w max_int)

let blocked_anywhere t lane =
  let result = ref None in
  Array.iteri (fun b w -> if !result = None && Mask.mem lane w then result := Some b) t.waiting;
  !result

let pp ppf t =
  Array.iteri
    (fun b p ->
      if not (Mask.is_empty p) || not (Mask.is_empty t.waiting.(b)) then
        Format.fprintf ppf "b%d: participants=%a waiting=%a@." b
          (Mask.pp ~width:t.warp_size) p
          (Mask.pp ~width:t.warp_size) t.waiting.(b))
    t.participants
