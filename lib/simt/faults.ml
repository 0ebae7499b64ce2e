module Sm = Support.Splitmix
module P = Support.Fault_plan

type event =
  | Pick of { step : int; warp : int; index : int }
  | Mem_spike of { step : int; warp : int; extra : int }
  | Release of { step : int; warp : int; slot : int }
  | Stall of { step : int; warp : int; cycles : int }
  | Io_delay of { step : int; warp : int; extra : int }

type disturbance = D_release of int | D_stall of int

(* Per-consultation probabilities, and the bounds sizes are drawn in. *)
let pick_rate = 0.05
let mem_rate = 0.02
let mem_spike_max = 200
let release_rate = 0.004
let stall_rate = 0.004
let stall_max = 64
let io_rate = 0.03
let io_max = 48

let pick_ch = 0
let mem_ch = 1
let disturb_ch = 2
let io_ch = 3

type t = event P.t

let create ~seed = P.generate ~channels:4 (Sm.of_ints seed 0xfa17 0x1417)

let key = function
  | Pick { step; _ } -> (pick_ch, step)
  | Mem_spike { step; _ } -> (mem_ch, step)
  | Release { step; _ } | Stall { step; _ } -> (disturb_ch, step)
  | Io_delay { step; _ } -> (io_ch, step)

let replay events = P.replay ~channels:4 ~key events

let events = P.events

(* Each decision point builds nothing unless its event fires: the
   interpreter consults [disturb] on every issue and
   [mem_spike]/[io_delay] on every memory access. *)
let pick t ~warp ~k ~chosen =
  let step = P.next t pick_ch in
  match
    P.record t
      (match P.rng t with
      | Some rng ->
        if k >= 2 && Sm.float rng < pick_rate then
          let index = Sm.int rng k in
          if index <> chosen then Some (Pick { step; warp; index }) else None
        else None
      | None -> (
        match P.lookup t pick_ch step with
        | Some (Pick { index; _ }) when index < k -> Some (Pick { step; warp; index })
        | _ -> None))
  with
  | Some (Pick { index; _ }) -> index
  | _ -> chosen

(* mem and io draw alike, each on its own channel: a spike models one
   slow transaction, io-delay models interconnect jitter on every
   response, and keeping the streams apart lets a replay reproduce
   either without the other. *)
let delay channel ~rate ~max make t ~warp =
  let step = P.next t channel in
  match
    P.record t
      (match P.rng t with
      | Some rng ->
        if Sm.float rng < rate then Some (make step warp (1 + Sm.int rng max)) else None
      | None -> (
        match P.lookup t channel step with
        | Some (Mem_spike { extra; _ } | Io_delay { extra; _ }) -> Some (make step warp extra)
        | _ -> None))
  with
  | Some (Mem_spike { extra; _ } | Io_delay { extra; _ }) -> extra
  | _ -> 0

(* Eta-expanded: a partial application of [delay] would build a curried
   closure on every call. *)
let mem_spike t ~warp =
  delay mem_ch ~rate:mem_rate ~max:mem_spike_max
    (fun step warp extra -> Mem_spike { step; warp; extra })
    t ~warp

let io_delay t ~warp =
  delay io_ch ~rate:io_rate ~max:io_max
    (fun step warp extra -> Io_delay { step; warp; extra })
    t ~warp

let disturb t ~warp ~waiting_slots w =
  let step = P.next t disturb_ch in
  match
    P.record t
      (match P.rng t with
      | Some rng ->
        let x = Sm.float rng in
        if x < release_rate then
          match waiting_slots w with
          | [] -> None
          | slots ->
            Some (Release { step; warp; slot = List.nth slots (Sm.int rng (List.length slots)) })
        else if x < release_rate +. stall_rate then
          Some (Stall { step; warp; cycles = 1 + Sm.int rng stall_max })
        else None
      | None -> (
        match P.lookup t disturb_ch step with
        | Some (Release { slot; _ }) when List.mem slot (waiting_slots w) ->
          Some (Release { step; warp; slot })
        | Some (Stall { cycles; _ }) -> Some (Stall { step; warp; cycles })
        | _ -> None))
  with
  | Some (Release { slot; _ }) -> Some (D_release slot)
  | Some (Stall { cycles; _ }) -> Some (D_stall cycles)
  | _ -> None

let fields = function
  | Pick { step; warp; index } -> ("pick", [ ("step", step); ("warp", warp); ("index", index) ])
  | Mem_spike { step; warp; extra } ->
    ("mem", [ ("step", step); ("warp", warp); ("extra", extra) ])
  | Release { step; warp; slot } ->
    ("release", [ ("step", step); ("warp", warp); ("slot", slot) ])
  | Stall { step; warp; cycles } ->
    ("stall", [ ("step", step); ("warp", warp); ("cycles", cycles) ])
  | Io_delay { step; warp; extra } -> ("io", [ ("step", step); ("warp", warp); ("extra", extra) ])

let of_fields kind fields =
  match (kind, fields) with
  | "pick", [ ("step", step); ("warp", warp); ("index", index) ] ->
    Some (Pick { step; warp; index })
  | "mem", [ ("step", step); ("warp", warp); ("extra", extra) ] ->
    Some (Mem_spike { step; warp; extra })
  | "release", [ ("step", step); ("warp", warp); ("slot", slot) ] ->
    Some (Release { step; warp; slot })
  | "stall", [ ("step", step); ("warp", warp); ("cycles", cycles) ] ->
    Some (Stall { step; warp; cycles })
  | "io", [ ("step", step); ("warp", warp); ("extra", extra) ] ->
    Some (Io_delay { step; warp; extra })
  | _ -> None

let trace_to_string events = P.trace_to_string fields events

let parse_trace text = P.parse_trace ~what:"Faults" of_fields text
