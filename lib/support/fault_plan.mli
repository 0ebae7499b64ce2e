(** The plan-and-trace core under both seeded fault injectors
    ({!Simt.Faults} for the simulator, {!Serve.Faults} for the service).

    An injector is consulted at decision points, each on one of its
    numbered channels; every channel counts its own consultations. A
    generative plan draws each decision from one SplitMix stream; a
    replay plan looks the decision up by [(channel, step)] in a recorded
    trace, so re-applying the recorded events at the same consultations
    reproduces a deterministic run exactly. Either way every {e applied}
    event is recorded, in order.

    A trace prints one event per line as [fault KIND NAME=INT ...], and
    parses back. The injector supplies its event type, its channel
    numbers, its draw functions, and the field list of each event kind;
    this module holds everything else. *)

type 'ev t

(** [generate ~channels rng] — a generative plan over channels
    [0 .. channels - 1], drawing from [rng]. *)
val generate : channels:int -> Splitmix.t -> 'ev t

(** [replay ~channels ~key events] — a plan that re-applies [events],
    each at the [(channel, step)] that [key] names. *)
val replay : channels:int -> key:('ev -> int * int) -> 'ev list -> 'ev t

(** Events applied so far, in application order. *)
val events : 'ev t -> 'ev list

(** [consult t channel ~draw ~replay] is one decision point on [channel]
    at its next step. A generative plan calls [draw rng step]; a replay
    plan calls [replay ev] on the event recorded at [(channel, step)], if
    there is one. A [Some ev] result is recorded as applied and returned;
    [None] leaves the decision point alone. *)
val consult :
  'ev t ->
  int ->
  draw:(Splitmix.t -> int -> 'ev option) ->
  replay:('ev -> 'ev option) ->
  'ev option

(** [trace_to_string fields events] prints one line per event, where
    [fields ev] is its kind and its named integer fields in order. *)
val trace_to_string : ('ev -> string * (string * int) list) -> 'ev list -> string

(** [parse_trace ~what of_fields text] inverts {!trace_to_string}:
    [of_fields kind fields] rebuilds an event, [None] when the kind or
    its field names do not match. Blank lines and [#] comments are
    skipped.
    @raise Failure ["WHAT.parse_trace: malformed line ..."] on a line
    that does not parse. *)
val parse_trace :
  what:string -> (string -> (string * int) list -> 'ev option) -> string -> 'ev list
