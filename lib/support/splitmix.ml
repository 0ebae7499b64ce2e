(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field, so a draw reads, advances and writes it back unboxed: with
   [mix64] and [next_int64] inlined, [int] and [bool] allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let of_ints a b c =
  (* Mix each component through the finalizer so that nearby (seed, warp,
     lane) triples land on unrelated streams. *)
  let s = mix64 (Int64.of_int a) in
  let s = mix64 (Int64.add s (mix64 (Int64.of_int b))) in
  let s = mix64 (Int64.add s (mix64 (Int64.of_int c))) in
  create s

let copy = Bytes.copy

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = create (mix64 (next_int64 t))

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Mask to OCaml's non-negative int range (62 value bits). *)
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let float t =
  (* 53 significant bits, uniform in [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L
