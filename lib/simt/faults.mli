(** Seeded fault injection for the SIMT simulator (the chaos harness).

    An injector is consulted by the interpreter at four kinds of
    decision points, each with its own consultation counter:

    - {e pick}: a scheduler decision among [k >= 2] runnable convergence
      groups of a warp may be overridden with a different candidate
      index (the "chaos scheduler" perturbation);
    - {e mem}: a warp-level memory access may be charged extra latency
      (a memory spike);
    - {e io}: the same access may additionally be charged seeded
      per-warp response jitter (io-delay) — a separate channel with its
      own counter and rate, so spike and jitter replay independently;
    - {e disturb}: once per issued instruction the warp may suffer a
      spurious release (a convergence barrier with blocked lanes fires
      early, exactly like a threshold fire) or a forced stall (every
      ready lane's wake-up time is pushed back).

    Faults are drawn from a SplitMix-seeded plan at fixed rates, so a
    run is reproducible from its seed alone. Every {e applied} fault is
    recorded as an {!event} carrying its consultation index; the
    resulting trace can be printed, parsed back, and replayed with
    {!replay}, which re-applies exactly the recorded faults at the same
    decision points (the simulator is deterministic in between). The
    plan, the recording and the trace format are
    {!Support.Fault_plan}'s; this module holds the channels and their
    draws. *)

type event =
  | Pick of { step : int; warp : int; index : int }
  | Mem_spike of { step : int; warp : int; extra : int }
  | Release of { step : int; warp : int; slot : int }
  | Stall of { step : int; warp : int; cycles : int }
  | Io_delay of { step : int; warp : int; extra : int }

(** What {!disturb} asks the interpreter to do. *)
type disturbance = D_release of int  (** force-release this barrier slot *)
                 | D_stall of int  (** push ready lanes back this many cycles *)

type t

(** [create ~seed] — a generative injector; same seed, same fault
    plan. *)
val create : seed:int -> t

(** [replay events] — an injector that re-applies exactly [events]. *)
val replay : event list -> t

(** Faults applied so far, in application order. *)
val events : t -> event list

(** [pick t ~warp ~k ~chosen] — final candidate index (defaults to
    [chosen]). *)
val pick : t -> warp:int -> k:int -> chosen:int -> int

(** [mem_spike t ~warp] — extra latency cycles for this access (0 when
    the access is left alone). *)
val mem_spike : t -> warp:int -> int

(** [io_delay t ~warp] — seeded memory-response jitter for this access
    (0 when undisturbed). Consulted once per warp memory access, after
    {!mem_spike}; a distinct channel, so a trace replays either stream
    without the other. *)
val io_delay : t -> warp:int -> int

(** [disturb t ~warp ~waiting_slots w] — per-issue disturbance;
    [waiting_slots w] lists the warp's barrier slots that currently have
    blocked lanes (candidates for a spurious release). It is called only
    when a release is drawn or replayed, so an issue that draws no event
    builds no list. *)
val disturb :
  t -> warp:int -> waiting_slots:('w -> int list) -> 'w -> disturbance option

(** One [fault KIND step=N warp=N FIELD=N] line per event. *)
val trace_to_string : event list -> string

(** Inverse of {!trace_to_string}; blank lines and [#] comments are skipped.
    @raise Failure on a malformed line. *)
val parse_trace : string -> event list
