(** srserved's front ends: a request stream read from a channel
    ({!serve_channel}: stdin or [--trace FILE]) and a Unix-domain socket
    ({!serve}: [--socket PATH]).

    Both answer each request line as soon as it is read, one response
    line per non-blank request line, in order: a blank line gets no
    response, and [quit] or [shutdown] ends the stream. A request line
    ends at its newline. Bytes after the last newline are a torn request:
    they wait for their newline, and if the input ends first they are
    dropped unanswered, by both front ends. So a socket connection's
    response stream is byte-identical to what the same bytes produce
    over a channel, regardless of how other connections interleave.

    The socket front end is a single-threaded select loop serving any
    number of concurrent client connections over one shared
    {!Server.t}. Hostile peers are contained per connection: a torn
    line older than [read_timeout] seconds earns a [timeout] error and a
    close; a line over [max_line] bytes earns an [overflow] error and a
    close; a failed write closes only that connection. None of it
    disturbs any other connection's stream.

    Over a socket, [quit] ends one connection. [shutdown] — or
    {!Server.drain} called from a signal handler — drains the whole
    service: runs read after it are answered by the draining server
    ([overloaded retry-after=N]), every connection gets [bye], the
    socket file is unlinked, and [serve] returns (the caller then exits
    0). SIGPIPE is set to ignore. *)

(** [serve_channel server ic oc] answers the request lines read from
    [ic] on [oc], each as soon as its newline arrives, until [quit],
    [shutdown] or end of input; an unterminated last line is dropped. *)
val serve_channel : Server.t -> in_channel -> out_channel -> unit

(** [serve server ~socket_path ()] binds, listens, and serves until the
    server drains. Replaces any stale socket file at [socket_path].
    Defaults: [read_timeout] 30s, [max_line] 1MB. *)
val serve :
  ?read_timeout:float -> ?max_line:int -> Server.t -> socket_path:string -> unit -> unit
