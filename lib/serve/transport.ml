(* srserved's two front ends: a request stream read from a channel
   (stdin or a trace file), and a Unix-domain socket serving any number
   of connections over one shared {!Server.t}.

   Both batch request lines through one handler, [handle_line]: a blank
   line flushes the batch, [max_batch] caps a segment, a non-run line
   flushes the batch and is then answered in place, and [quit] or
   [shutdown] ends the stream. The socket's single-threaded select loop
   runs each batch to completion on the coordinating thread before it
   looks at the next connection's bytes, so every connection sees the
   byte-identical response stream the channel front end would have
   written, whatever the interleaving.

   Hostility is contained per connection:
   - a peer that goes quiet mid-line holds only its own buffer; after
     [read_timeout] seconds without the newline it gets a [timeout]
     error response and is closed;
   - a line longer than [max_line] gets an [overflow] error and a
     close, before the bytes can grow unboundedly;
   - a write failure (peer died, SIGPIPE suppressed) closes that
     connection only; nobody else's stream is disturbed.

   [quit] ends one connection; [shutdown] (or {!Server.drain}, e.g.
   from a SIGTERM handler) drains the whole service: the launch under
   way completes and answers, every run after it — the rest of its
   batch and every other connection's pending work — is answered by
   the draining server ([overloaded retry-after=N]),
   everyone gets [bye], the socket file is unlinked, and [serve]
   returns so the caller can exit 0. *)

module P = Protocol

(* One request stream's batch state, whichever front end feeds it. *)
type stream = {
  write : string -> unit; (* newline-terminated response lines *)
  mutable pending : string list; (* reversed run lines awaiting a flush *)
  mutable alive : bool; (* false once the stream ended or its peer died *)
}

(* All responses for one batch go out in a single write; a failed socket
   write ends that stream without touching anyone else. *)
let respond server st lines =
  let out = Server.submit_lines server lines in
  try st.write (String.concat "" (List.map (fun l -> l ^ "\n") out))
  with Unix.Unix_error _ -> st.alive <- false

let flush_pending server st =
  if st.pending <> [] then begin
    let lines = List.rev st.pending in
    st.pending <- [];
    respond server st lines
  end

let is_run_line line =
  let line = String.trim line in
  String.length line >= 4 && String.sub line 0 4 = "run "

let handle_line server ~max_batch st line =
  if String.trim line = "" then flush_pending server st
  else if is_run_line line then begin
    st.pending <- line :: st.pending;
    if List.length st.pending >= max_batch then flush_pending server st
  end
  else begin
    (* stats / quit / shutdown / malformed: sequential markers — the
       batch before them answers first. *)
    flush_pending server st;
    respond server st [ line ];
    match P.parse_command line with
    | Ok P.Quit | Ok P.Shutdown ->
      (* Either way this stream ends with its [bye]; for shutdown the
         server is now draining and the socket loop winds down. *)
      st.alive <- false
    | _ -> ()
  end

let serve_channel ~max_batch server ic oc =
  if max_batch < 1 then invalid_arg "Transport.serve_channel: max_batch must be >= 1";
  let st =
    {
      write =
        (fun s ->
          output_string oc s;
          flush oc);
      pending = [];
      alive = true;
    }
  in
  try
    while st.alive do
      handle_line server ~max_batch st (input_line ic)
    done
  with End_of_file -> flush_pending server st

(* ---- the socket front end ---- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable partial_since : float option; (* unterminated line age, for timeouts *)
  st : stream;
}

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    match Unix.write_substring fd s !sent (n - !sent) with
    | written -> sent := !sent + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send_raw conn line =
  try write_all conn.fd (line ^ "\n") with Unix.Unix_error _ -> conn.st.alive <- false

(* Split complete lines out of the buffer; whatever remains is a partial
   whose age starts the read-timeout clock. *)
let consume server ~max_batch conn =
  let continue = ref true in
  while !continue && conn.st.alive do
    let data = Buffer.contents conn.buf in
    match String.index_opt data '\n' with
    | None ->
      if String.length data = 0 then conn.partial_since <- None
      else if conn.partial_since = None then conn.partial_since <- Some (Unix.gettimeofday ());
      continue := false
    | Some i ->
      let line = String.sub data 0 i in
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf data (i + 1) (String.length data - i - 1);
      conn.partial_since <- None;
      handle_line server ~max_batch conn.st line
  done

let reject conn kind msg =
  send_raw conn
    (P.print_response
       (P.Error { rid = -1; code = Core.Cli.exit_code (Core.Cli.Usage msg); kind; msg }));
  conn.st.alive <- false

let serve ?(max_batch = 64) ?(read_timeout = 30.0) ?(max_line = 1_000_000) server ~socket_path
    () =
  if max_batch < 1 then invalid_arg "Transport.serve: max_batch must be >= 1";
  if read_timeout <= 0.0 then invalid_arg "Transport.serve: read_timeout must be positive";
  if max_line < 1 then invalid_arg "Transport.serve: max_line must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 16;
  let conns = ref [] in
  let chunk = Bytes.create 65536 in
  let finish () =
    (* Drain: answer everything already buffered (the draining server
       bounces it with the back-off hint), say goodbye, tear down. *)
    List.iter
      (fun c ->
        if c.st.alive then begin
          flush_pending server c.st;
          if c.st.alive then send_raw c (P.print_response P.Bye)
        end;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      !conns;
    conns := [];
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  let read_conn c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      (* EOF flushes like the stdio loop's: buffered work still answers. *)
      consume server ~max_batch c;
      flush_pending server c.st;
      c.st.alive <- false
    | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      consume server ~max_batch c;
      if c.st.alive && Buffer.length c.buf > max_line then
        reject c "overflow" (Printf.sprintf "request line exceeds %d bytes" max_line)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> c.st.alive <- false
  in
  let rec loop () =
    if Server.draining server then finish ()
    else begin
      let live = List.filter (fun c -> c.st.alive) !conns in
      (* Wake in time for the earliest partial-line deadline; otherwise
         tick coarsely so a signal-driven drain is noticed promptly. *)
      let now = Unix.gettimeofday () in
      let timeout =
        List.fold_left
          (fun acc c ->
            match c.partial_since with
            | Some t0 -> Float.min acc (Float.max 0.0 (t0 +. read_timeout -. now))
            | None -> acc)
          0.5 live
      in
      (match Unix.select (listen_fd :: List.map (fun c -> c.fd) live) [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        if List.memq listen_fd ready then begin
          match Unix.accept listen_fd with
          | fd, _ ->
            let st = { write = write_all fd; pending = []; alive = true } in
            conns := { fd; buf = Buffer.create 256; partial_since = None; st } :: !conns
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter (fun c -> if c.st.alive && List.memq c.fd ready then read_conn c) live);
      (* Enforce read timeouts on connections still holding a torn line. *)
      let now = Unix.gettimeofday () in
      List.iter
        (fun c ->
          match c.partial_since with
          | Some t0 when c.st.alive && now -. t0 >= read_timeout ->
            reject c "timeout"
              (Printf.sprintf "no newline within %.3gs of a partial line" read_timeout)
          | _ -> ())
        !conns;
      conns :=
        List.filter
          (fun c ->
            if c.st.alive then true
            else begin
              (try Unix.close c.fd with Unix.Unix_error _ -> ());
              false
            end)
          !conns;
      loop ()
    end
  in
  loop ()
