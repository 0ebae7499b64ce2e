type policy = Most_threads | Lowest_pc | Round_robin

let policies =
  [ ("most-threads", Most_threads); ("lowest-pc", Lowest_pc); ("round-robin", Round_robin) ]

let policy_name policy = fst (List.find (fun (_, p) -> p = policy) policies)

type yield_policy = Oldest_arrival | Most_waiters | Lowest_slot

let yield_policies =
  [
    ("oldest-arrival", Oldest_arrival);
    ("most-waiters", Most_waiters);
    ("lowest-slot", Lowest_slot);
  ]

type latencies = {
  alu : int;
  float_op : int;
  special : int;
  branch : int;
  barrier : int;
  call : int;
  rand : int;
}

type cache = { sets : int; ways : int; hit_latency : int }

type memory = {
  line_words : int;
  base_latency : int;
  per_transaction : int;
  cache : cache option;
}

type t = {
  warp_size : int;
  n_warps : int;
  policy : policy;
  latencies : latencies;
  memory : memory;
  yield_on_stall : bool;
  yield_policy : yield_policy;
  seed : int;
  max_issues : int;
  fuel : int;
}

let default =
  {
    warp_size = 32;
    n_warps = 4;
    policy = Most_threads;
    (* Arithmetic is modelled as fully pipelined (latency ~ issue cost);
       only memory, transcendentals and sync carry real stall latency.
       This matches SIMT hardware, where back-to-back independent issues
       hide ALU latency within a warp. *)
    latencies =
      { alu = 1; float_op = 2; special = 6; branch = 1; barrier = 1; call = 2; rand = 3 };
    memory = { line_words = 16; base_latency = 36; per_transaction = 6; cache = None };
    yield_on_stall = false;
    yield_policy = Oldest_arrival;
    seed = 42;
    max_issues = 200_000_000;
    fuel = 0;
  }

let validate t =
  if t.warp_size <= 0 || t.warp_size > Support.Mask.max_width then
    invalid_arg
      (Printf.sprintf "Config: warp_size %d out of range [1, %d]" t.warp_size
         Support.Mask.max_width);
  if t.n_warps <= 0 then invalid_arg "Config: n_warps must be positive";
  if t.max_issues <= 0 then invalid_arg "Config: max_issues must be positive";
  if t.fuel < 0 then invalid_arg "Config: fuel must be non-negative (0 = unlimited)";
  let l = t.latencies in
  if l.alu <= 0 || l.float_op <= 0 || l.special <= 0 || l.branch <= 0 || l.barrier <= 0
     || l.call <= 0 || l.rand <= 0
  then invalid_arg "Config: all latencies must be positive";
  let m = t.memory in
  if m.line_words <= 0 then invalid_arg "Config: line_words must be positive";
  if m.base_latency <= 0 || m.per_transaction < 0 then
    invalid_arg "Config: memory latencies must be non-negative (base positive)";
  match m.cache with
  | Some c ->
    if c.sets <= 0 || c.ways <= 0 || c.hit_latency <= 0 then
      invalid_arg "Config: cache parameters must be positive"
  | None -> ()
