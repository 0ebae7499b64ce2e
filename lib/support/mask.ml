type t = int

let max_width = Sys.int_size - 1

let check_lane lane =
  if lane < 0 || lane >= max_width then
    invalid_arg (Printf.sprintf "Mask: lane %d out of range [0, %d)" lane max_width)

let empty = 0

let full n =
  if n < 0 || n > max_width then
    invalid_arg (Printf.sprintf "Mask.full: width %d out of range [0, %d]" n max_width);
  if n = 0 then 0 else (1 lsl n) - 1

let singleton lane =
  check_lane lane;
  1 lsl lane

let mem lane m = lane >= 0 && lane < max_width && m land (1 lsl lane) <> 0

let add lane m =
  check_lane lane;
  m lor (1 lsl lane)

let remove lane m = if lane < 0 || lane >= max_width then m else m land lnot (1 lsl lane)
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b

(* SWAR popcount. Masks occupy bits [0, max_width) of a 63-bit native
   int, so every constant below fits comfortably; the first mask only
   needs even bit positions of [m lsr 1], which spans bits [0, 61). *)
let count m =
  let m = m - ((m lsr 1) land 0x1555555555555555) in
  let m = (m land 0x3333333333333333) + ((m lsr 2) land 0x3333333333333333) in
  let m = (m + (m lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  let m = m + (m lsr 8) in
  let m = m + (m lsr 16) in
  let m = m + (m lsr 32) in
  m land 0x7F

let is_empty m = m = 0
let equal (a : int) b = a = b
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

(* Visit only the set bits: peel the lowest one each round, so sparse
   masks (the common case on a diverged warp) cost O(popcount), not
   O(max_width). *)
let iter f m =
  let m = ref m in
  while !m <> 0 do
    let bit = !m land - !m in
    f (count (bit - 1));
    m := !m land (!m - 1)
  done

let fold f m acc =
  let r = ref acc in
  iter (fun lane -> r := f lane !r) m;
  !r

let to_list m = List.rev (fold (fun lane acc -> lane :: acc) m [])

let of_list lanes = List.fold_left (fun m lane -> add lane m) empty lanes

let lowest m =
  if m = 0 then raise Not_found;
  (* Isolate the lowest set bit; the popcount of (bit - 1) is its index. *)
  count ((m land -m) - 1)

(* Ascending-lane-list lexicographic order, computed on the bits. The
   first differing lane is the lowest bit of [a lxor b]; whichever mask
   owns it lists a smaller element there — unless the other mask has no
   lane at or above that point, in which case it is a strict prefix and
   sorts first. Matches [compare (to_list a) (to_list b)]. *)
let compare_lex a b =
  if a = b then 0
  else begin
    let l = (a lxor b) land -(a lxor b) in
    let owner_is_a = a land l <> 0 in
    let other = if owner_is_a then b else a in
    let other_exhausted = other land lnot (l - 1) = 0 in
    if owner_is_a then if other_exhausted then 1 else -1
    else if other_exhausted then -1
    else 1
  end

let pp ~width ppf m =
  Format.pp_print_string ppf "0b";
  for lane = width - 1 downto 0 do
    Format.pp_print_char ppf (if mem lane m then '1' else '0')
  done

let to_hex m = Printf.sprintf "0x%x" m
