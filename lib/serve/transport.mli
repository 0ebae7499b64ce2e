(** srserved's front ends: a request stream read from a channel
    ({!serve_channel}: stdin or [--trace FILE]) and a Unix-domain socket
    ({!serve}: [--socket PATH]).

    Both batch request lines under one set of rules: a blank line
    flushes the batch, [max_batch] caps a segment, a non-run line
    flushes the batch and is then answered in place, and [quit] or
    [shutdown] ends the stream. So a socket connection's response
    stream is byte-identical to what the same lines produce over a
    channel, regardless of how other connections interleave.

    The socket front end is a single-threaded select loop serving any
    number of concurrent client connections over one shared
    {!Server.t}. Hostile peers are contained per connection: a torn
    line older than [read_timeout] seconds earns a [timeout] error and a
    close; a line over [max_line] bytes earns an [overflow] error and a
    close; a failed write closes only that connection. None of it
    disturbs any other connection's stream.

    Over a socket, [quit] ends one connection. [shutdown] — or
    {!Server.drain} called from a signal handler — drains the whole
    service: buffered work is answered by the draining server
    ([overloaded retry-after=N]), every connection gets [bye], the
    socket file is unlinked, and [serve] returns (the caller then exits
    0). SIGPIPE is set to ignore. *)

(** [serve_channel ~max_batch server ic oc] answers the request lines
    read from [ic] on [oc], one response line per request line, in
    order, until [quit], [shutdown] or end of input; end of input
    flushes the pending batch first.
    @raise Invalid_argument if [max_batch < 1]. *)
val serve_channel : max_batch:int -> Server.t -> in_channel -> out_channel -> unit

(** [serve server ~socket_path ()] binds, listens, and serves until the
    server drains. Replaces any stale socket file at [socket_path].
    Defaults: [max_batch] 64, [read_timeout] 30s, [max_line] 1MB. *)
val serve :
  ?max_batch:int ->
  ?read_timeout:float ->
  ?max_line:int ->
  Server.t ->
  socket_path:string ->
  unit ->
  unit
