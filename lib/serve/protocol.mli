(** The srserved wire protocol: newline-delimited, machine-parsable
    request/response lines.

    Every request and every response is exactly one line of printable
    ASCII: a head word ([run] / [stats] / [quit] / [shutdown], [ok] /
    [error] / [overloaded] / [deadline] / [bye]) followed by
    space-separated [key=value] fields.
    Values are percent-encoded ({!encode}) so sources with spaces and
    newlines survive the line discipline; fields may arrive in any order
    and unknown keys are a parse error (a typo'd field silently ignored
    would be a debugging trap, not a convenience).

    Error responses reuse {!Core.Cli}'s stable 0–8 exit-code contract:
    the [code] field of an [error] line is exactly the code the one-shot
    tool ([srcc]/[srrun]) would have exited with for the same input, so
    clients can share triage logic across the served and one-shot paths.
    [overloaded] is not an error code but its own response head: a
    draining server admitted no launch, and the same request sent to a
    live server is expected to succeed — conflating that with a 0–8
    failure would poison retry logic. It always carries
    [retry-after=SECONDS], so clients back off instead of hammering a
    server on its way down. [deadline]
    likewise stands apart from [error]: the request's fuel budget ran
    out, which is an {e expected} outcome of a budgeted run, not a tool
    failure (it maps to exit code 9 on the one-shot path). *)

(** {2 Percent encoding} *)

(** [encode s] makes [s] safe for a [key=value] field: ['%'], space, TAB,
    CR and LF become [%XX] escapes; everything else is verbatim. *)
val encode : string -> string

(** [decode s] inverts {!encode}.
    @raise Failure on a truncated or non-hex escape. *)
val decode : string -> string

(** {2 Requests} *)

(** One kernel-launch request. Compile-relevant fields ([mode],
    [coarsen], [threshold], [source]) form the cache key; the rest only
    parameterize the launch. *)
type request = {
  id : int;  (** echoed verbatim in the response *)
  mode : string;  (** baseline|none|specrecon|specrecon-static|auto *)
  policy : string;  (** most-threads|lowest-pc|round-robin *)
  warps : int;
  warp_size : int;
  seed : int;
  coarsen : int option;
  threshold : int option;  (** negative = strip thresholds, like the CLI *)
  entry : string option;  (** kernel to launch (default: program default) *)
  args : Ir.Types.value list;  (** kernel arguments *)
  init : string;  (** none|data — pre-launch memory fill (see {!Server.data_init}) *)
  deadline : int option;
      (** per-request fuel budget override; [None] inherits the server's
          default, [Some 0] means unlimited *)
  source : string;  (** MiniSIMT text *)
}

(** [make_request ~id ~source ()] with every other field at its
    default (specrecon, most-threads, 2 warps of 32, seed 11, no init,
    no deadline override). *)
val make_request :
  id:int ->
  ?mode:string ->
  ?policy:string ->
  ?warps:int ->
  ?warp_size:int ->
  ?seed:int ->
  ?coarsen:int ->
  ?threshold:int ->
  ?entry:string ->
  ?args:Ir.Types.value list ->
  ?init:string ->
  ?deadline:int ->
  source:string ->
  unit ->
  request

type command =
  | Run of request
  | Stats of int  (** report cache/served counters; the int is the echoed id *)
  | Quit
  | Shutdown
      (** graceful drain: every later run answers [overloaded], then
          the whole server stops (not just this connection) *)

(** [parse_command line] — strict: unknown heads, unknown keys, bad
    escapes, bad integers, unknown mode/policy/init names and a missing
    [source] are all [Error msg]. *)
val parse_command : string -> (command, string) result

val print_command : command -> string

(** {2 Responses} *)

type cache_status = Hit | Miss

(** Metrics echo of one completed launch plus the cache counters at the
    moment the response was formed. [digest] is {!Simt.Memsys.digest} of
    the final memory image. *)
type reply = {
  rid : int;
  cache : cache_status;
  hits : int;
  misses : int;
  evictions : int;
  cycles : int;
  issues : int;
  active : int;  (** total active lanes over all issues *)
  finished : int;  (** threads that ran to completion *)
  digest : int;
}

type response =
  | Ok_run of reply
  | Error of { rid : int; code : int; kind : string; msg : string }
      (** [code] per {!Core.Cli.exit_code}; [kind] its symbolic name *)
  | Overloaded of { rid : int; retry_after : int }
      (** bounced by a draining server before admission; safe to retry
          elsewhere or later. [retry_after] is the back-off hint in
          seconds *)
  | Deadline of { rid : int; fuel : int }
      (** the launch ran out of its fuel budget (exit code 9 on the
          one-shot path); [fuel] is the budget that was exhausted *)
  | Stats_reply of {
      rid : int;
      hits : int;
      misses : int;
      evictions : int;
      entries : int;
      served : int;
      phits : int;  (** compiles satisfied from the persistent cache *)
      pcorrupt : int;  (** corrupt persisted entries degraded to misses *)
    }
  | Bye

val parse_response : string -> (response, string) result

val print_response : response -> string
