(* srserved's two front ends: a request stream read from a channel
   (stdin or a trace file), and a Unix-domain socket serving any number
   of connections over one shared {!Server.t}.

   Both answer each request line as soon as it is read, through one
   handler, [handle_line]: a blank line gets no response, any other line
   gets exactly one, written before the next line is looked at, and the
   [bye] that [quit] or [shutdown] earns ends the stream. Both split
   their input into lines with one function, [consume], so they share
   one rule for a torn request: bytes after the last newline wait for
   theirs, and are dropped unanswered if the input ends first. The socket's
   single-threaded select loop answers every complete line a read
   delivered before it looks at the next connection's bytes, so every
   connection sees the byte-identical response stream the channel front
   end would have written, whatever the interleaving.

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
   way completes and answers, every run read after it is answered by
   the draining server ([overloaded retry-after=N]), everyone gets
   [bye], the socket file is unlinked, and [serve] returns so the
   caller can exit 0. *)

module P = Protocol

(* One request stream, whichever front end feeds it. *)
type stream = {
  write : string -> unit; (* newline-terminated response lines *)
  mutable alive : bool; (* false once the stream ended or its peer died *)
}

(* A failed socket write ends that stream without touching anyone
   else. *)
let respond st response =
  try st.write (P.print_response response ^ "\n") with Unix.Unix_error _ -> st.alive <- false

let handle_line server st line =
  if String.trim line <> "" then begin
    let response = Server.answer_line server line in
    respond st response;
    match response with
    | P.Bye ->
      (* [quit] or [shutdown]: either way this stream ends with its
         [bye]; for shutdown the server is now draining and the socket
         loop winds down. *)
      st.alive <- false
    | _ -> ()
  end

(* Answer every complete line in [buf], split out of one snapshot by
   offset, and keep only the tail: a partial line, answered once its
   newline arrives. Returns whether a line was answered. *)
let consume server st buf =
  let data = Buffer.contents buf in
  let rec split start =
    match String.index_from_opt data start '\n' with
    | Some i when st.alive ->
      handle_line server st (String.sub data start (i - start));
      split (i + 1)
    | _ -> start
  in
  let start = split 0 in
  if start > 0 then begin
    Buffer.clear buf;
    Buffer.add_substring buf data start (String.length data - start)
  end;
  start > 0

let serve_channel server ic oc =
  let st =
    {
      write =
        (fun s ->
          output_string oc s;
          flush oc);
      alive = true;
    }
  in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  (* [input] returns what one read delivers, so a line is answered as
     soon as it arrives, however long the input stays open after it. *)
  let rec loop () =
    if st.alive then
      match input ic chunk 0 (Bytes.length chunk) with
      | 0 -> () (* end of input: a partial line left in [buf] is dropped unanswered *)
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        ignore (consume server st buf);
        loop ()
  in
  loop ()

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

let reject conn kind msg =
  respond conn.st (P.Error { rid = -1; code = Core.Cli.exit_code (Core.Cli.Usage msg); kind; msg });
  conn.st.alive <- false

let serve ?(read_timeout = 30.0) ?(max_line = 1_000_000) server ~socket_path () =
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
    (* Drain: every line read so far is answered, so say goodbye and
       tear down. *)
    List.iter
      (fun c ->
        if c.st.alive then respond c.st P.Bye;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      !conns;
    conns := [];
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  let read_conn c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      (* EOF: a partial line left in the buffer is dropped unanswered. *)
      c.st.alive <- false
    | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      let answered = consume server c.st c.buf in
      (* The partial line left behind runs the read-timeout clock,
         restarted whenever a line was answered. *)
      if Buffer.length c.buf = 0 then c.partial_since <- None
      else if answered || c.partial_since = None then
        c.partial_since <- Some (Unix.gettimeofday ());
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
            let st = { write = write_all fd; alive = true } in
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
