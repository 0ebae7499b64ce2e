(* Seeded fault injection for the service layer — the serve-side mirror
   of Simt.Faults. Where the simulator harness perturbs scheduler picks
   and memory latencies, this one perturbs the transport and the store:
   what a hostile network, a dying client, or a flaky disk does to
   srserved.

   Two channels, each with its own consultation counter:

   - req: once per request a chaos client is about to send, the plan
     may order it torn (truncate the line mid-byte and close), slowed
     (dribble it out in tiny chunks — slow-loris), fueled (inject a
     tight deadline= override so the launch exhausts its budget), or
     aborted (send fully, read nothing, vanish);
   - file: once per corruption opportunity between server generations,
     the plan may order the persisted cache files mangled.

   The plan, its recording and its trace format are Support.Fault_plan's,
   shared with Simt.Faults. *)

module Sm = Support.Splitmix
module P = Support.Fault_plan

type event =
  | Truncate of { step : int; keep : int }
  | Slow of { step : int; chunk : int }
  | Fuel of { step : int; fuel : int }
  | Abort of { step : int }
  | Corrupt of { step : int }

type disposition =
  | Clean
  | Truncated of int  (* send only this many bytes, then close *)
  | Slowed of int  (* send in chunks of this many bytes *)
  | Fueled of int  (* inject deadline=fuel into the request *)
  | Aborted  (* send, read nothing, close *)

(* Per-consultation probabilities, and the bounds sizes are drawn in. *)
let trunc_rate = 0.10
let slow_rate = 0.10
let fuel_rate = 0.10
let abort_rate = 0.05
let corrupt_rate = 0.5
let fuel_max = 200
let chunk_max = 7

let req_ch = 0
let file_ch = 1

type t = event P.t

let create ~seed = P.generate ~channels:2 (Sm.of_ints seed 0x5e17e 0xfa17)

let key = function
  | Truncate { step; _ } | Slow { step; _ } | Fuel { step; _ } | Abort { step } -> (req_ch, step)
  | Corrupt { step } -> (file_ch, step)

let replay events = P.replay ~channels:2 ~key events

let events = P.events

(* [len] is the request line's byte length, so a truncation point can be
   drawn inside it; replayed truncations clamp to it. *)
let request_fault t ~len =
  let step = P.next t req_ch in
  match
    P.record t
      (match P.rng t with
      | Some rng ->
        let x = Sm.float rng in
        if x < trunc_rate then Some (Truncate { step; keep = Sm.int rng (max 1 len) })
        else if x < trunc_rate +. slow_rate then
          Some (Slow { step; chunk = 1 + Sm.int rng chunk_max })
        else if x < trunc_rate +. slow_rate +. fuel_rate then
          Some (Fuel { step; fuel = 1 + Sm.int rng fuel_max })
        else if x < trunc_rate +. slow_rate +. fuel_rate +. abort_rate then Some (Abort { step })
        else None
      | None -> (
        match P.lookup t req_ch step with
        | Some (Truncate { step; keep }) ->
          Some (Truncate { step; keep = min keep (max 0 (len - 1)) })
        | fault -> fault))
  with
  | Some (Truncate { keep; _ }) -> Truncated keep
  | Some (Slow { chunk; _ }) -> Slowed chunk
  | Some (Fuel { fuel; _ }) -> Fueled fuel
  | Some (Abort _) -> Aborted
  | Some (Corrupt _) | None -> Clean

let file_fault t =
  let step = P.next t file_ch in
  P.record t
    (match P.rng t with
    | Some rng -> if Sm.float rng < corrupt_rate then Some (Corrupt { step }) else None
    | None -> P.lookup t file_ch step)
  <> None

let fields = function
  | Truncate { step; keep } -> ("trunc", [ ("step", step); ("keep", keep) ])
  | Slow { step; chunk } -> ("slow", [ ("step", step); ("chunk", chunk) ])
  | Fuel { step; fuel } -> ("fuel", [ ("step", step); ("fuel", fuel) ])
  | Abort { step } -> ("abort", [ ("step", step) ])
  | Corrupt { step } -> ("corrupt", [ ("step", step) ])

let of_fields kind fields =
  match (kind, fields) with
  | "trunc", [ ("step", step); ("keep", keep) ] -> Some (Truncate { step; keep })
  | "slow", [ ("step", step); ("chunk", chunk) ] -> Some (Slow { step; chunk })
  | "fuel", [ ("step", step); ("fuel", fuel) ] -> Some (Fuel { step; fuel })
  | "abort", [ ("step", step) ] -> Some (Abort { step })
  | "corrupt", [ ("step", step) ] -> Some (Corrupt { step })
  | _ -> None

let trace_to_string events = P.trace_to_string fields events

let parse_trace text = P.parse_trace ~what:"Serve.Faults" of_fields text
