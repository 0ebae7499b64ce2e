(* Minimal srserved socket client: connect with bounded retry/backoff
   (the server may still be binding when we race it up) and
   line-oriented round trips.

   Shared by the socket tests and the serve-chaos harness — which also
   wants the raw fd to write torn bytes through, so it is exposed. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(attempts = 40) ?(backoff_s = 0.025) path =
  let rec go n delay =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n > 1 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf delay;
      go (n - 1) (Float.min 0.5 (delay *. 2.0))
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go (max 1 attempts) backoff_s

let close t =
  (try flush t.oc with Sys_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let fd t = t.fd

let send t lines =
  List.iter
    (fun line ->
      output_string t.oc line;
      output_char t.oc '\n')
    lines;
  flush t.oc

let recv t n = List.init n (fun _ -> input_line t.ic)

let round_trip t lines =
  send t lines;
  recv t (List.length lines)

let rpc t line =
  send t [ line ];
  input_line t.ic
