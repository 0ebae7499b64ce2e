(** Service-level chaos oracles over a real forked srserved socket
    server — the serve-side counterpart of the simulator chaos tier.

    Two contracts, both differential against a clean server answering
    the same generated request trace:

    - {b transport} ({!check_transport}): under a seeded
      {!Serve.Faults} plan — torn lines, slow-loris sends, injected
      [deadline=] fuel budgets, clients that vanish without reading —
      every response the faulted conversation does deliver must be
      byte-identical to the clean stream (a fuel-faulted request may
      instead answer a well-formed [deadline] naming its rid and
      budget), the server must drain to exit 0 afterwards, and a final
      clean pass must reproduce the reference byte-for-byte. On a
      violation the fault trace is shrunk ({!Shrink.shrink_trace}) by
      replaying sub-traces against fresh servers, so the reported repro
      is minimal.

    - {b persistence} ({!check_persist}): a server over a fresh
      [--persist] store serves the trace cold-then-warm and is killed
      [-9]; a restart over the same store must answer identically, warm
      from disk ([phits] = one per program); after the plan's file
      channel mangles store entries, a third generation must stay
      byte-identical while counting exactly the mangled entries as
      [pcorrupt] — corruption degrades to misses, never to wrong
      answers.

    Servers are forked children ([Unix.fork] + {!Serve.Transport.serve});
    safe because the server never spawns a domain.
    Everything is keyed by [(seed, chaos_seed)], so a campaign replays
    exactly. *)

(** [check_transport ~seed ~chaos_seed ()] returns (trace-request
    replays performed, verdict). Defaults: [count] 30 requests,
    [plans] 2 fault plans, [max_issues] 200_000. *)
val check_transport :
  ?count:int ->
  ?plans:int ->
  ?max_issues:int ->
  seed:int ->
  chaos_seed:int ->
  unit ->
  int * Oracle.verdict

(** [check_persist ~seed ~chaos_seed ()] returns (trace-request replays
    performed, verdict). Defaults: [count] 12 programs (each served
    cold+warm per generation), [max_issues] 200_000. *)
val check_persist :
  ?count:int -> ?max_issues:int -> seed:int -> chaos_seed:int -> unit -> int * Oracle.verdict

type campaign = {
  replays : int;  (** trace-request replays forked servers answered *)
  plans : int;  (** transport fault plans exercised *)
  violations : Oracle.violation list;
}

(** [run ~seed ()] — the [srfuzz --serve-chaos] campaign: both oracles
    at one seed. [chaos_seed] defaults to [0xc4a05], matching the
    simulator chaos tier's root. *)
val run :
  ?count:int ->
  ?plans:int ->
  ?persist_count:int ->
  ?max_issues:int ->
  ?chaos_seed:int ->
  seed:int ->
  unit ->
  campaign
