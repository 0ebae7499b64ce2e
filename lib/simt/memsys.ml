type stats = { reads : int; writes : int; transactions : int; hits : int; misses : int }

type cache_state = {
  csets : int;
  cways : int;
  hit_latency : int;
  (* tags.(set) is a list of line tags, most recently used first. *)
  tags : int list array;
}

type t = {
  config : Config.memory;
  data : Ir.Types.value array;
  cache : cache_state option;
  (* Scratch for coalescing: distinct line ids of the access in flight.
     Grown on demand; reused across accesses so the hot path stays
     allocation-free. *)
  mutable lines : int array;
  mutable reads : int;
  mutable writes : int;
  mutable transactions : int;
  mutable hits : int;
  mutable misses : int;
}

let create (config : Config.memory) ~size =
  if size < 0 then invalid_arg "Memsys.create: negative size";
  let cache =
    Option.map
      (fun (c : Config.cache) ->
        { csets = c.sets; cways = c.ways; hit_latency = c.hit_latency; tags = Array.make c.sets [] })
      config.cache
  in
  {
    config;
    data = Array.make size (Ir.Types.I 0);
    cache;
    lines = Array.make 32 0;
    reads = 0;
    writes = 0;
    transactions = 0;
    hits = 0;
    misses = 0;
  }

let check t addr what =
  if addr < 0 || addr >= Array.length t.data then
    invalid_arg (Printf.sprintf "Memsys.%s: address %d out of bounds [0, %d)" what addr
                   (Array.length t.data))

let read t addr =
  check t addr "read";
  t.reads <- t.reads + 1;
  t.data.(addr)

let write t addr v =
  check t addr "write";
  t.writes <- t.writes + 1;
  t.data.(addr) <- v

let size t = Array.length t.data

(* Probe the cache for a line; true on hit. Updates LRU order and fills on
   miss. *)
let probe cache line =
  let set = line mod cache.csets in
  let resident = cache.tags.(set) in
  if List.mem line resident then begin
    cache.tags.(set) <- line :: List.filter (fun l -> l <> line) resident;
    true
  end
  else begin
    let kept =
      if List.length resident >= cache.cways then
        List.filteri (fun i _ -> i < cache.cways - 1) resident
      else resident
    in
    cache.tags.(set) <- line :: kept;
    false
  end

(* [access_costn t ~addrs ~n] prices the warp access touching
   [addrs.(0 .. n-1)]. The distinct lines are collected into the reused
   [t.lines] scratch and probed in ascending order (the order the old
   list-based path established, which the cache LRU state depends on). *)
let access_costn t ~addrs ~n =
  if n = 0 then 0
  else begin
    if Array.length t.lines < n then t.lines <- Array.make n 0;
    let lines = t.lines in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let line = addrs.(i) / t.config.line_words in
      let j = ref 0 in
      while !j < !k && lines.(!j) <> line do incr j done;
      if !j = !k then begin
        lines.(!k) <- line;
        incr k
      end
    done;
    let k = !k in
    (* insertion sort: k is at most the warp width and usually tiny *)
    for i = 1 to k - 1 do
      let line = lines.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && lines.(!j) > line do
        lines.(!j + 1) <- lines.(!j);
        decr j
      done;
      lines.(!j + 1) <- line
    done;
    t.transactions <- t.transactions + k;
    match t.cache with
    | None -> t.config.base_latency + ((k - 1) * t.config.per_transaction)
    | Some cache ->
      let hits = ref 0 in
      for i = 0 to k - 1 do
        if probe cache lines.(i) then incr hits
      done;
      let hits = !hits in
      let misses = k - hits in
      t.hits <- t.hits + hits;
      t.misses <- t.misses + misses;
      let miss_cost =
        if misses = 0 then 0
        else t.config.base_latency + ((misses - 1) * t.config.per_transaction)
      in
      let hit_cost = if hits = 0 then 0 else cache.hit_latency in
      max hit_cost miss_cost
  end

let stats t =
  { reads = t.reads; writes = t.writes; transactions = t.transactions; hits = t.hits;
    misses = t.misses }

let dump t ~base ~len =
  if base < 0 || len < 0 || base + len > Array.length t.data then
    invalid_arg "Memsys.dump: region out of bounds";
  Array.sub t.data base len

let digest t =
  (* FNV-1a over the type-tagged bit patterns of every word, so two
     memories are digest-equal iff they are value-for-value identical
     (including int/float tags and float payload bits). *)
  let h = ref 0x1465_0fb0_739d_0383 in
  let mix x =
    h := !h lxor x;
    h := !h * 0x100000001b3
  in
  Array.iter
    (fun v ->
      match v with
      | Ir.Types.I n ->
        mix 1;
        mix n
      | Ir.Types.F f ->
        mix 2;
        mix (Int64.to_int (Int64.bits_of_float f)))
    t.data;
  !h land max_int
