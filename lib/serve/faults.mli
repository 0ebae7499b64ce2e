(** Seeded fault injection for the service layer — the serve-side
    mirror of {!Simt.Faults}.

    Two channels, each with its own consultation counter:

    - {e req}: once per request a chaos client is about to send, the
      plan may order it torn mid-line, dribbled out slow-loris style,
      given an injected tight [deadline=] fuel budget, or sent by a
      client that vanishes without reading its response;
    - {e file}: once per corruption opportunity between server
      generations, the plan may order persisted cache files mangled.

    Same contract as the simulator harness, on the same
    {!Support.Fault_plan} core: faults draw from a SplitMix-seeded plan
    at fixed rates, every applied fault is recorded with its
    consultation index, and the printed trace parses back and replays
    exactly. *)

type event =
  | Truncate of { step : int; keep : int }
  | Slow of { step : int; chunk : int }
  | Fuel of { step : int; fuel : int }
  | Abort of { step : int }
  | Corrupt of { step : int }

(** What {!request_fault} asks the chaos client to do with one
    request. *)
type disposition =
  | Clean
  | Truncated of int  (** send only this many bytes of the line, then close *)
  | Slowed of int  (** send the line in chunks of this many bytes *)
  | Fueled of int  (** inject [deadline=fuel] into the request *)
  | Aborted  (** send fully, read no response, close *)

type t

(** [create ~seed] — a generative plan; same seed, same faults. *)
val create : seed:int -> t

(** [replay events] — a plan that re-applies exactly [events]. *)
val replay : event list -> t

(** Faults applied so far, in application order. *)
val events : t -> event list

(** [request_fault t ~len] — the disposition for the next request,
    where [len] is the request line's byte length (truncation points
    are drawn, and replayed ones clamped, inside it). *)
val request_fault : t -> len:int -> disposition

(** [file_fault t] — whether to corrupt at this file opportunity. *)
val file_fault : t -> bool

(** One [fault KIND step=N ...] line per event. *)
val trace_to_string : event list -> string

(** Inverse of {!trace_to_string}; blank lines and [#] comments are skipped.
    @raise Failure on a malformed line. *)
val parse_trace : string -> event list
