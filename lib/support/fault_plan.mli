(** The plan-and-trace core under both seeded fault injectors
    ({!Simt.Faults} for the simulator, {!Serve.Faults} for the service).

    An injector is consulted at decision points, each on one of its
    numbered channels; every channel counts its own consultations. A
    generative plan draws each decision from one SplitMix stream; a
    replay plan looks the decision up by [(channel, step)] in a recorded
    trace, so re-applying the recorded events at the same consultations
    reproduces a deterministic run exactly. Either way the injector
    records every {e applied} event, in order.

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

(** One decision point on a channel is [next], then either a draw from
    [rng] (a generative plan) or a [lookup] (a replay plan), then
    [record] on what fired. None of these builds anything, so a decision
    point that fires no event allocates nothing beyond its own draws:
    the simulator consults one on every issue. *)

(** [next t channel] — the step index of [channel]'s next decision
    point; advances its counter. *)
val next : 'ev t -> int -> int

(** The stream a generative plan draws from; [None] for a replay plan. *)
val rng : 'ev t -> Splitmix.t option

(** [lookup t channel step] — the event a replay plan recorded for that
    decision point ([None] for a generative plan). *)
val lookup : 'ev t -> int -> int -> 'ev option

(** [record t fired] records [fired]'s event, if any, as applied and
    returns [fired]. *)
val record : 'ev t -> 'ev option -> 'ev option

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
