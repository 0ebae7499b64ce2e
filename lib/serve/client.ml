(* Minimal srserved socket client: connect with bounded retry/backoff
   (the server may still be binding when we race it up), line-oriented
   round trips, and an rpc helper that retries transient overload.

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
  (* Blank line: the flush marker, so the batch answers now rather than
     at max_batch. It earns no response of its own. *)
  output_char t.oc '\n';
  flush t.oc

let recv t n = List.init n (fun _ -> input_line t.ic)

let round_trip t lines =
  send t lines;
  recv t (List.length lines)

let rpc ?(retries = 5) ?(backoff_s = 0.02) t line =
  let rec go n delay =
    match round_trip t [ line ] with
    | [ resp ] -> (
      match Protocol.parse_response resp with
      | Ok (Protocol.Overloaded { retry_after = None; _ }) when n > 0 ->
        (* Transient backpressure: safe to retry after a pause. *)
        Unix.sleepf delay;
        go (n - 1) (Float.min 0.5 (delay *. 2.0))
      | _ ->
        (* Anything else — including a draining server's retry-after
           hint — is the answer; retrying a drain is futile. *)
        resp)
    | other -> failwith (Printf.sprintf "client: %d responses to one request" (List.length other))
  in
  go (max 0 retries) backoff_s
