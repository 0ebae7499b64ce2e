(** The srserved engine: compile-and-simulate behind a
    content-addressed compile cache.

    A server owns one {!Cache.t} mapping (source, compile options) to
    the {!Core.Compile.compiled} artifact — in particular its immutable
    {!Ir.Decoded.t}, so a kernel submitted by any number of clients
    decodes once. {!submit} and {!answer_line} give exactly one
    response per command, on the calling domain, each before the next
    command is looked at:

    - each run is admitted, resolved through the cache and launched
      before its response is returned, so the hit/miss/eviction
      counters a response echoes, and everything a [stats] reply
      reports, depend on the command sequence alone;
    - nothing queues: the front ends answer each request line as they
      read it, so a client waits only for the commands read before its
      own.

    Failures never tear the server down: per-request errors map through
    {!Core.Cli.classify} to the 0–9 code contract and come back as
    [error] responses (fuel exhaustion gets its own [deadline] head).

    With [persist_dir] set, freshly compiled artifacts are written
    through to a crash-safe on-disk store ({!Persist}) and future
    misses try the disk before compiling — a restarted server answers a
    replayed trace warm, byte-identically to its pre-crash run stream
    (persist loads commit to the in-memory cache as ordinary misses and
    are only visible in [stats] replies, as [phits]/[pcorrupt]).

    A {e draining} server ({!drain}, or a [shutdown] command) still
    answers every command, but admits no run: the launch under way
    completes, and every later run gets [overloaded] with a
    [retry-after] back-off hint. *)

type t

(** [create ()] — [cache_capacity] entries ([0] disables caching),
    [max_issues] the per-launch runaway budget, [fuel] the default
    per-launch deadline budget ([0] = unlimited; requests override it with
    [deadline=]), [persist_dir] the on-disk artifact store to write
    through to, [retry_after] the back-off hint (seconds) attached to
    [overloaded] responses while draining, [race_gate] refuses to
    launch programs with static {!Analysis.Race_safety} findings
    (answered as [error] responses of kind [race]; the gate applies at
    launch time, so gated and ungated servers share artifacts for one
    key). *)
val create :
  ?cache_capacity:int ->
  ?max_issues:int ->
  ?fuel:int ->
  ?persist_dir:string ->
  ?retry_after:int ->
  ?race_gate:bool ->
  unit ->
  t

(** The deterministic input-array fill the fuzz oracles launch under:
    [datai]/[dataf] get SplitMix streams keyed by global base address,
    all other globals stay zeroed. Exposed here so the serve-mismatch
    oracle and the one-shot path it compares against share one
    definition ([init=data] on the wire). *)
val data_init : Ir.Types.program -> Simt.Memsys.t -> unit

(** The wire rendering of a classified failure: the [kind] token and
    message an [error] response carries for that {!Core.Cli.outcome}.
    Exposed so the serve-mismatch oracle renders one-shot failures
    exactly as the server does. *)
val outcome_kind_and_message : Core.Cli.outcome -> string * string

(** One response per command, in order. *)
val submit : t -> Protocol.command list -> Protocol.response list

(** [answer_line t line] — parse one request line and answer it: the
    front ends' core. A malformed line gets an [error] response with the
    usage code. *)
val answer_line : t -> string -> Protocol.response

(** Cumulative launches completed (ok or error; overloaded and stats
    excluded). *)
val served : t -> int

val cache_hits : t -> int

val cache_misses : t -> int

val cache_evictions : t -> int

val cache_entries : t -> int

(** Artifacts loaded from the persistent store: one for each cache miss
    the store answers (0 without [persist_dir]). *)
val persist_hits : t -> int

(** Store loads that found an entry but rejected it on verification and
    compiled instead: one for each such cache miss (0 without
    [persist_dir]). *)
val persist_corrupt : t -> int

(** [drain t] — stop admitting launches: every later run is answered
    [overloaded retry-after=N]. Stats/quit still answer; the launch
    under way completes. Idempotent. *)
val drain : t -> unit

val draining : t -> bool
