(** Minimal srserved socket client.

    Used by the socket determinism tests and the serve-chaos harness.
    Line-oriented: {!round_trip} writes the given request lines and
    reads exactly one response line per request line. *)

type t

(** [connect path] — retries [ECONNREFUSED]/[ENOENT] with exponential
    backoff (default 40 attempts from 25ms, capped at 500ms per wait),
    for racing a just-forked server to its [bind]. Other errors raise. *)
val connect : ?attempts:int -> ?backoff_s:float -> string -> t

val close : t -> unit

(** The raw descriptor — for harnesses that want to write torn bytes or
    go quiet mid-line on purpose. *)
val fd : t -> Unix.file_descr

(** [send t lines] — write the lines. *)
val send : t -> string list -> unit

(** [recv t n] — read exactly [n] response lines.
    @raise End_of_file if the server closes first. *)
val recv : t -> int -> string list

val round_trip : t -> string list -> string list

(** [rpc t line] — one request, one response line. An [overloaded]
    response comes from a draining server and is returned as-is:
    retrying a drain is futile.
    @raise End_of_file if the server closes first. *)
val rpc : t -> string -> string
