module Mask = Support.Mask
module L = Ir.Linear
module D = Ir.Decoded
module T = Ir.Types

exception Deadlock of string
exception Runtime_error of string

type budget = Issue_cap | Fuel

exception Out_of_budget of budget * string

type yield_event = {
  at_cycle : int;
  warp : int;
  slot : int;
  released : int list;
  abandoned : int list;
}

type result = {
  metrics : Metrics.t;
  memory : Memsys.t;
  pc_issues : int array;
  pc_lanes : int array;
  yield_log : yield_event list;
}

type issue_event = {
  at_cycle : int;
  warp : int;
  pc : int;
  active : int list;
  where : L.location;
}

type thread_status = Ready | Blocked | Done

(* [ret_reg] is the caller register receiving the return value, -1 for
   none — decoded form, no option box. *)
type frame = { regs : T.value array; ret_pc : int; ret_reg : int }

type thread = {
  lane : int;
  tid : int;
  rng : Support.Splitmix.t;
  mutable frames : frame list; (* head = current frame *)
  (* Cache of the head frame's register file, so the issue path reads
     registers with one array load instead of a list match per operand.
     Invariant: [cur_regs == (List.hd frames).regs]; updated on call and
     return, the only places the frame stack changes. *)
  mutable cur_regs : T.value array;
  mutable pc : int;
  mutable status : thread_status;
  mutable ready_at : int;
  (* Convergence-group identity: the index of this thread's group slot in
     its warp's [gmask] table, -1 while the thread is parked at a barrier
     or done. Threads co-issue only when they share a group; groups split
     whenever members head to different places (divergent branch
     outcomes, barrier blocking) and merge ONLY when a convergence barrier
     fires. This models Volta behaviour faithfully: diverged threads do
     not spontaneously reconverge just because their PCs happen to
     coincide — reconvergence requires a barrier, which is exactly why
     compilers insert them. *)
  mutable group : int;
}

type warp = {
  wid : int;
  threads : thread array;
  barriers : Barrier_unit.t;
  mutable rr_pc : int; (* last pc issued by the Round_robin policy *)
  (* Runnable convergence groups as a packed table of lane bitmasks:
     slots [0, n_groups) hold disjoint non-empty masks covering every
     Ready thread. Maintained incrementally on split/merge, so the issue
     path never rebuilds the partition. Invariant: all members of a group
     share the same pc and ready_at — they always transition together,
     and any divergent transition (branch, return, barrier block)
     immediately re-partitions the group by destination. *)
  gmask : Mask.t array;
  mutable n_groups : int;
  (* Lanes blocked at a convergence barrier. They sit in no group, so
     issue selection never scans them; a release regroups them. *)
  mutable parked : Mask.t;
  (* Per slot, the member threads in lane order for the mask in [built]:
     rebuilt at issue time only when the slot's mask moved, so an issue
     walks an array instead of peeling mask bits. A slot's array is
     allocated on its first issue. *)
  members : thread array array;
  built : Mask.t array;
  (* Cached min ready_at over the groups (max_int if none), so an idle
     cycle advances time in O(warps) instead of O(warps × lanes).
     [ready_stale] marks the cache dirty after any group mutation. *)
  mutable ready_min : int;
  mutable ready_stale : bool;
}

let run ?tracer ?faults ?race ?entry (config : Config.t) (dprog : D.t) ~args ~init_memory =
  Config.validate config;
  let lprog = dprog.D.linear in
  let entry_info =
    match entry with
    | None -> lprog.kernel
    | Some name -> (
      match List.find_opt (fun (f : L.finfo) -> String.equal f.fname name) lprog.funcs with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "Interp.run: no function named %s" name))
  in
  if List.length args <> entry_info.arity then
    invalid_arg
      (Printf.sprintf "Interp.run: kernel %s expects %d args, got %d" entry_info.fname
         entry_info.arity (List.length args));
  let lat = config.latencies in
  let memory = Memsys.create config.memory ~size:(max lprog.mem_size 1) in
  List.iter
    (fun (base, size) ->
      for addr = base to base + size - 1 do
        Memsys.write memory addr (T.F 0.0)
      done)
    lprog.float_regions;
  init_memory memory;
  let metrics = Metrics.create ~warp_size:config.warp_size in
  let yield_log = ref [] in
  (* The decoded descriptor columns, hoisted so each issue pays array
     loads, never record-field walks. *)
  let dcode = dprog.D.op in
  let da = dprog.D.a and db = dprog.D.b and dc = dprog.D.c in
  let bops = dprog.D.bop and uops = dprog.D.uop in
  let vals = dprog.D.vals and calls = dprog.D.calls in
  (* Static issue latencies, resolved per slot from the decode-time
     latency class — the hot path never re-classifies an opcode. Memory
     slots keep a placeholder; their cost is dynamic (coalescing). *)
  let lat_tbl =
    Array.map
      (function
        | D.Lc_alu -> lat.alu
        | D.Lc_float -> lat.float_op
        | D.Lc_special -> lat.special
        | D.Lc_branch -> lat.branch
        | D.Lc_barrier -> lat.barrier
        | D.Lc_call -> lat.call
        | D.Lc_rand -> lat.rand
        | D.Lc_mem -> 0)
      dprog.D.lclass
  in
  (* The run's one count of what issued: per pc, the warp instructions
     issued there and the active lanes summed over them. Every per-issue
     metric and every per-block or per-region figure is a fold over
     these two columns, so the loop counts each issue once. *)
  let pc_issues = Array.make (Array.length dcode) 0 in
  let pc_lanes = Array.make (Array.length dcode) 0 in
  let make_thread wid lane =
    let regs = Array.make (max entry_info.n_regs 1) (T.I 0) in
    List.iteri (fun i v -> regs.(i) <- v) args;
    {
      lane;
      tid = (wid * config.warp_size) + lane;
      rng = Support.Splitmix.of_ints config.seed wid lane;
      frames = [ { regs; ret_pc = -1; ret_reg = -1 } ];
      cur_regs = regs;
      pc = entry_info.entry_pc;
      status = Ready;
      ready_at = 0;
      group = 0;
    }
  in
  let warps =
    Array.init config.n_warps (fun wid ->
        let w =
          {
            wid;
            threads = Array.init config.warp_size (make_thread wid);
            barriers =
              Barrier_unit.create ~n_barriers:lprog.n_barriers ~warp_size:config.warp_size;
            rr_pc = -1;
            gmask = Array.make config.warp_size Mask.empty;
            n_groups = 1;
            parked = Mask.empty;
            members = Array.make config.warp_size [||];
            built = Array.make config.warp_size Mask.empty;
            ready_min = 0;
            ready_stale = true;
          }
        in
        w.gmask.(0) <- Mask.full config.warp_size;
        w)
  in
  let n_threads = config.n_warps * config.warp_size in
  let v_nthreads = T.I n_threads in
  (* The binding issue budget: fuel when it is set and tighter than the
     cap, else the cap (which wins a tie). *)
  let budget, limit =
    if 0 < config.fuel && config.fuel < config.max_issues then (Fuel, config.fuel)
    else (Issue_cap, config.max_issues)
  in
  let cycle = ref 0 in
  let last_warp = ref (config.n_warps - 1) in
  (* Per-run scratch: simulation within one [run] is single-threaded, so
     one set of buffers serves every warp without re-allocation. *)
  let addr_buf = Array.make config.warp_size 0 in
  let part_pc = Array.make config.warp_size 0 in
  let part_slot = Array.make config.warp_size 0 in
  let cand_pc = Array.make config.warp_size 0 in
  let cand_mask = Array.make config.warp_size Mask.empty in
  let cand_slot = Array.make config.warp_size 0 in
  let context w th =
    Printf.sprintf "warp %d lane %d tid %d pc %d" w.wid th.lane th.tid th.pc
  in
  (* Encoded-operand read: bit 0 picks register file vs immediate pool,
     the rest is the index — no ADT, no frame-list walk. *)
  let eval_enc th e = if e land 1 = 0 then th.cur_regs.(e lsr 1) else vals.(e lsr 1) in
  let mem_cost w cost =
    match faults with
    | Some f ->
      (* Channel order is part of the replay contract: the spike stream
         draws before the io-delay stream on every access. *)
      let spike = Faults.mem_spike f ~warp:w.wid in
      let jitter = Faults.io_delay f ~warp:w.wid in
      cost + spike + jitter
    | None -> cost
  in
  (* ---- incremental group-table maintenance ---- *)
  (* Take a thread out of its group; a parked or finished thread has
     none. *)
  let detach w th =
    let s = th.group in
    if s >= 0 then begin
      th.group <- -1;
      let m = Mask.remove th.lane w.gmask.(s) in
      w.gmask.(s) <- m;
      if Mask.is_empty m then begin
        (* free the slot by moving the last one down; its member list
           moves with it *)
        let last = w.n_groups - 1 in
        if s <> last then begin
          w.gmask.(s) <- w.gmask.(last);
          let list = w.members.(s) and built = w.built.(s) in
          w.members.(s) <- w.members.(last);
          w.built.(s) <- w.built.(last);
          w.members.(last) <- list;
          w.built.(last) <- built;
          Mask.iter (fun lane -> w.threads.(lane).group <- s) w.gmask.(s)
        end;
        w.n_groups <- last
      end
    end
  in
  (* Threads that moved together may have landed in different places:
     park the ones that blocked and re-partition the rest into fresh
     groups by destination pc. *)
  let regroup w moved =
    w.ready_stale <- true;
    Mask.iter (fun lane -> detach w w.threads.(lane)) moved;
    let k = ref 0 in
    Mask.iter
      (fun lane ->
        let th = w.threads.(lane) in
        match th.status with
        | Blocked -> w.parked <- Mask.add lane w.parked
        | Ready ->
          let j = ref 0 in
          while !j < !k && part_pc.(!j) <> th.pc do incr j done;
          if !j = !k then begin
            part_pc.(!k) <- th.pc;
            part_slot.(!k) <- w.n_groups;
            w.gmask.(w.n_groups) <- Mask.empty;
            w.n_groups <- w.n_groups + 1;
            incr k
          end;
          let s = part_slot.(!j) in
          w.gmask.(s) <- Mask.add lane w.gmask.(s);
          th.group <- s
        | Done -> ())
      moved
  in
  (* Wake a set of lanes released from a barrier: the shared tail of an
     organic fire, a yield-recovery release and a fault-injected spurious
     release. Only organic fires count as [barrier_fires]. *)
  let apply_release w released =
    w.parked <- Mask.diff w.parked released;
    Mask.iter
      (fun lane ->
        let th = w.threads.(lane) in
        th.status <- Ready;
        th.pc <- th.pc + 1;
        th.ready_at <- !cycle + lat.barrier)
      released;
    (* The release is the one place where diverged threads reconverge:
       everyone released at the same point joins one fresh group. *)
    regroup w released
  in
  (* Release every lane the barrier fire condition allows. Organic fires
     (and only they) advance the warp's race-logger interval: a forced
     release is lost synchronization, so it must not separate accesses
     in the race model. *)
  let release_fired w b =
    match Barrier_unit.fired w.barriers b with
    | None -> ()
    | Some released ->
      metrics.barrier_fires <- metrics.barrier_fires + 1;
      (match race with Some rl -> Race_log.bump rl ~warp:w.wid | None -> ());
      apply_release w released
  in
  let finish_thread w th =
    th.status <- Done;
    w.ready_stale <- true;
    detach w th;
    metrics.threads_finished <- metrics.threads_finished + 1;
    let affected = Barrier_unit.withdraw_lane w.barriers th.lane in
    List.iter (release_fired w) affected
  in
  (* ---- stall handling: yield recovery or deadlock diagnosis ---- *)
  let waiting_slots w =
    let acc = ref [] in
    for b = lprog.n_barriers - 1 downto 0 do
      if not (Mask.is_empty (Barrier_unit.waiting w.barriers b)) then acc := b :: !acc
    done;
    !acc
  in
  (* A warp with no runnable group but parked lanes can never progress
     again: barrier state is warp-local, so no other warp can release
     them. *)
  let warp_stalled w = w.n_groups = 0 && not (Mask.is_empty w.parked) in
  (* The dynamic waits-for relation among this warp's barriers: barrier
     [c] waits for [b] when a lane [c] still expects (a participant not
     yet arrived) is itself blocked on [b]. A cycle in this relation is
     the concrete deadlock witness — the runtime counterpart of the
     static cycle srlint reports. *)
  let waits_for_cycle w =
    let succ c =
      let expected =
        Mask.diff (Barrier_unit.participants w.barriers c) (Barrier_unit.waiting w.barriers c)
      in
      Mask.fold
        (fun lane acc ->
          match Barrier_unit.blocked_anywhere w.barriers lane with
          | Some b -> ( match acc with Some b' when b' <= b -> acc | _ -> Some b)
          | None -> acc)
        expected None
    in
    let rec drop_until c = function
      | [] -> []
      | x :: rest -> if x = c then x :: rest else drop_until c rest
    in
    let rec walk seen c =
      if List.mem c seen then Some (drop_until c (List.rev seen))
      else match succ c with None -> None | Some b -> walk (c :: seen) b
    in
    List.find_map (fun s -> walk [] s) (waiting_slots w)
  in
  let lanes_str m = "{" ^ String.concat "," (List.map string_of_int (Mask.to_list m)) ^ "}" in
  let sites_str w m =
    let sites =
      Mask.fold
        (fun lane acc ->
          let loc = lprog.locs.(w.threads.(lane).pc) in
          let s = Printf.sprintf "%s/bb%d" loc.L.in_func loc.L.in_block in
          if List.mem s acc then acc else acc @ [ s ])
        m []
    in
    String.concat "," sites
  in
  let deadlock_report w =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "all live threads of warp %d blocked on convergence barriers (conflicting \
          barriers?)\n"
         w.wid);
    (match waits_for_cycle w with
    | Some cycle_slots ->
      let names = List.map (fun b -> Printf.sprintf "b%d" b) cycle_slots in
      Buffer.add_string buf
        (Printf.sprintf "waits-for cycle: %s -> %s\n"
           (String.concat " -> " names)
           (List.hd names));
      List.iter
        (fun b ->
          let waiting = Barrier_unit.waiting w.barriers b in
          let expected = Mask.diff (Barrier_unit.participants w.barriers b) waiting in
          Buffer.add_string buf
            (Printf.sprintf "  b%d: lanes %s blocked at %s; still expects lanes %s (%s)\n" b
               (lanes_str waiting) (sites_str w waiting) (lanes_str expected)
               (sites_str w expected)))
        cycle_slots
    | None -> ());
    Buffer.add_string buf (Format.asprintf "%a" Barrier_unit.pp w.barriers);
    Buffer.add_string buf
      "hint: deconfliction (the compiler default) prevents this; yield recovery (srrun \
       --yield) trades lost convergence for forward progress\n";
    Buffer.contents buf
  in
  (* Every live group of [w] is blocked: release a victim barrier chosen
     by the configured policy (Volta-style forward progress) or report
     the deadlock with its waits-for cycle. *)
  let recover_or_deadlock w =
    let slots = waiting_slots w in
    if slots = [] then
      raise
        (Deadlock
           (Printf.sprintf "warp %d: all groups blocked but no barrier has waiters" w.wid));
    if not config.yield_on_stall then raise (Deadlock (deadlock_report w));
    let victim =
      match config.yield_policy with
      | Config.Lowest_slot -> List.hd slots
      | Config.Oldest_arrival ->
        (* [slots] ascends, so keeping the incumbent on ties breaks
           toward the lowest slot id. *)
        List.fold_left
          (fun best b ->
            let a =
              match Barrier_unit.oldest_arrival w.barriers b with
              | Some a -> a
              | None -> max_int
            in
            match best with Some (ba, _) when ba <= a -> best | _ -> Some (a, b))
          None slots
        |> Option.get |> snd
      | Config.Most_waiters ->
        List.fold_left
          (fun best b ->
            let n = Mask.count (Barrier_unit.waiting w.barriers b) in
            let a =
              match Barrier_unit.oldest_arrival w.barriers b with
              | Some a -> a
              | None -> max_int
            in
            match best with
            | Some (bn, ba, _) when bn > n || (bn = n && ba <= a) -> best
            | _ -> Some (n, a, b))
          None slots
        |> Option.get
        |> fun (_, _, b) -> b
    in
    match Barrier_unit.force_release w.barriers victim with
    | None -> assert false (* victim came from waiting_slots *)
    | Some released ->
      let abandoned = Barrier_unit.participants w.barriers victim in
      metrics.yields <- metrics.yields + 1;
      metrics.yield_released <- metrics.yield_released + Mask.count released;
      metrics.yield_abandoned <- metrics.yield_abandoned + Mask.count abandoned;
      yield_log :=
        {
          at_cycle = !cycle;
          warp = w.wid;
          slot = victim;
          released = Mask.to_list released;
          abandoned = Mask.to_list abandoned;
        }
        :: !yield_log;
      apply_release w released
  in
  (* Blocking and thread exit are the only transitions that can leave a
     warp with only parked lanes — the barrier and exit arms of [execute]
     check right here, so a doomed warp is caught at the faulting
     instruction while other warps keep running. *)
  let watchdog w = if warp_stalled w then recover_or_deadlock w in
  (* Execute one issued group: all lanes of [active] sit at [pc], and
     [members.(0 .. n-1)] are its threads in lane order.

     This is the threaded-code dispatch the decode stage exists for: one
     match over the opcode column (constant constructors, a flat jump
     table), operands read through the encoded-int scheme, and every
     lane walk a plain loop over the member array — no ADT match on the
     instruction, no closure per issue, no name resolution. Three
     arms own their shape: loads and stores gather every address, cost
     the access, then commit; waits block or pass each lane, then
     regroup; exit retires lanes. Every other opcode runs in one lane
     walk that computes and advances each lane in a single pass,
     matching the opcode per lane, and then does its per-issue tail. *)
  let execute w pc active members n =
    w.ready_stale <- true;
    let op = dcode.(pc) and fa = da.(pc) and fb = db.(pc) in
    match op with
    | D.Load | D.Store ->
      (* load: a=dst b=addr; store: a=addr b=value *)
      let addr = if op = D.Load then fb else fa in
      for i = 0 to n - 1 do
        addr_buf.(i) <- Valops.to_int (eval_enc members.(i) addr)
      done;
      let cost = mem_cost w (Memsys.access_costn memory ~addrs:addr_buf ~n) in
      let pc1 = pc + 1 and ready = !cycle + cost in
      (* Lane order resolves write conflicts: the highest lane wins,
         matching CUDA's unspecified-but-single-winner semantics
         deterministically. *)
      for i = 0 to n - 1 do
        let th = members.(i) in
        let addr = addr_buf.(i) in
        (if op = D.Load then begin
           th.cur_regs.(fa) <- Memsys.read memory addr;
           match race with
           | Some rl -> Race_log.on_read rl ~warp:w.wid ~tid:th.tid ~pc ~addr
           | None -> ()
         end
         else begin
           Memsys.write memory addr (eval_enc th fb);
           match race with
           | Some rl -> Race_log.on_write rl ~warp:w.wid ~tid:th.tid ~pc ~addr
           | None -> ()
         end);
        th.pc <- pc1;
        th.ready_at <- ready
      done
    | D.Wait | D.Wait_threshold ->
      let threshold = if op = D.Wait then -1 else fb in
      let pc1 = pc + 1 and ready = !cycle + lat_tbl.(pc) in
      for i = 0 to n - 1 do
        let th = members.(i) in
        if Barrier_unit.is_participant w.barriers fa th.lane then begin
          th.status <- Blocked;
          Barrier_unit.block w.barriers fa th.lane ~now:!cycle ~threshold
        end
        else begin
          th.pc <- pc1;
          th.ready_at <- ready
        end
      done;
      (* blockers park, pass-through threads regroup *)
      regroup w active;
      release_fired w fa;
      watchdog w
    | D.Exit ->
      (* [finish_thread] detaches lanes and may regroup released ones
         mid-walk; neither touches a member array's contents. *)
      for i = 0 to n - 1 do
        finish_thread w members.(i)
      done;
      if metrics.threads_finished < n_threads then watchdog w
    | _ ->
      let fc = dc.(pc) and bop = bops.(pc) in
      let pc1 = pc + 1 and ready = !cycle + lat_tbl.(pc) in
      for i = 0 to n - 1 do
        let th = members.(i) in
        th.pc <-
          (match op with
          | D.Bin ->
            (* Superops: the hottest sub-opcodes run with the arithmetic
               inlined. Every other combination — another sub-opcode or an
               operand-kind mismatch — falls back to {!Valops.binop}, so
               Valops stays the single source of semantics: type errors,
               division by zero, and the shared boolean values. *)
            (th.cur_regs.(fa) <-
              (match (bop, eval_enc th fb, eval_enc th fc) with
              | T.Add, T.I a, T.I b -> T.I (a + b)
              | T.Sub, T.I a, T.I b -> T.I (a - b)
              | T.Mul, T.I a, T.I b -> T.I (a * b)
              | T.Lt, T.I a, T.I b -> if a < b then Valops.v_true else Valops.v_false
              | T.Le, T.I a, T.I b -> if a <= b then Valops.v_true else Valops.v_false
              | T.Eq, T.I a, T.I b -> if a = b then Valops.v_true else Valops.v_false
              | T.Fadd, T.F a, T.F b -> T.F (a +. b)
              | T.Fmul, T.F a, T.F b -> T.F (a *. b)
              | o, xv, yv -> Valops.binop o xv yv));
            pc1
          | D.Un ->
            th.cur_regs.(fa) <- Valops.unop uops.(pc) (eval_enc th fb);
            pc1
          | D.Mov ->
            th.cur_regs.(fa) <- eval_enc th fb;
            pc1
          | D.Tid ->
            th.cur_regs.(fa) <- T.I th.tid;
            pc1
          | D.Lane ->
            th.cur_regs.(fa) <- T.I th.lane;
            pc1
          | D.Nthreads ->
            th.cur_regs.(fa) <- v_nthreads;
            pc1
          | D.Rand ->
            th.cur_regs.(fa) <- T.F (Support.Splitmix.float th.rng);
            pc1
          | D.Randint ->
            let bound = Valops.to_int (eval_enc th fb) in
            if bound <= 0 then
              raise
                (Runtime_error
                   (Printf.sprintf "randint bound %d not positive (%s)" bound (context w th)));
            th.cur_regs.(fa) <- T.I (Support.Splitmix.int th.rng bound);
            pc1
          | D.Join | D.Rejoin ->
            Barrier_unit.join w.barriers fa th.lane;
            pc1
          | D.Cancel ->
            Barrier_unit.cancel w.barriers fa th.lane;
            pc1
          | D.Call ->
            let ci = calls.(fa) in
            let regs = Array.make ci.D.cn_regs (T.I 0) in
            (* Arguments read the caller frame: fill the callee registers
               before swinging cur_regs over. *)
            for i = 0 to Array.length ci.D.cargs - 1 do
              regs.(i) <- eval_enc th ci.D.cargs.(i)
            done;
            th.frames <- { regs; ret_pc = pc1; ret_reg = ci.D.cret } :: th.frames;
            th.cur_regs <- regs;
            ci.D.centry
          | D.Ret -> (
            match th.frames with
            | { ret_pc; ret_reg; _ } :: (top :: _ as rest) ->
              (* The return operand reads the callee frame; evaluate
                 before the pop. A ret with no operand writes I 0 into a
                 declared return register (the seed semantics). *)
              let v = if fa >= 0 then eval_enc th fa else T.I 0 in
              th.frames <- rest;
              th.cur_regs <- top.regs;
              if ret_reg >= 0 then th.cur_regs.(ret_reg) <- v;
              ret_pc
            | _ -> raise (Runtime_error (Printf.sprintf "ret outside call (%s)" (context w th))))
          | D.Br -> if Valops.truthy (eval_enc th fa) then fb else pc1
          | D.Jump -> fa
          | D.Load | D.Store | D.Wait | D.Wait_threshold | D.Exit -> assert false);
        th.ready_at <- ready
      done;
      (match op with
      | D.Cancel -> release_fired w fa
      (* a divergent branch outcome, or returns to different call sites,
         split the convergence group *)
      | D.Ret | D.Br -> regroup w active
      | _ -> ())
  in
  (* Pick the next (warp, pc, lanes) to issue, rotating over warps.
     Candidates are convergence groups, read straight off the warp's
     incremental group table, which holds only runnable groups; a group
     is issuable once its ready_at has passed. Candidates are ordered by
     (pc, lexicographic lane list) — the order the schedule-sensitive
     policies are defined against — so the slot a group sits in is never
     observable. *)
  let sel_pc = ref 0 and sel_mask = ref Mask.empty and sel_slot = ref 0 and sel_warp = ref 0 in
  let select_group w =
    let k = ref 0 in
    for s = 0 to w.n_groups - 1 do
      let m = w.gmask.(s) in
      let rep = w.threads.(Mask.lowest m) in
      if rep.ready_at <= !cycle then begin
        cand_pc.(!k) <- rep.pc;
        cand_mask.(!k) <- m;
        cand_slot.(!k) <- s;
        incr k
      end
    done;
    let k = !k in
    if k = 0 then false
    else begin
      for i = 1 to k - 1 do
        let pc = cand_pc.(i) and m = cand_mask.(i) and s = cand_slot.(i) in
        let j = ref (i - 1) in
        while
          !j >= 0
          && (cand_pc.(!j) > pc
             || (cand_pc.(!j) = pc && Mask.compare_lex cand_mask.(!j) m > 0))
        do
          cand_pc.(!j + 1) <- cand_pc.(!j);
          cand_mask.(!j + 1) <- cand_mask.(!j);
          cand_slot.(!j + 1) <- cand_slot.(!j);
          decr j
        done;
        cand_pc.(!j + 1) <- pc;
        cand_mask.(!j + 1) <- m;
        cand_slot.(!j + 1) <- s
      done;
      let chosen =
        match config.policy with
        | Config.Lowest_pc -> 0
        | Config.Most_threads ->
          let best = ref 0 in
          let best_n = ref (Mask.count cand_mask.(0)) in
          for i = 1 to k - 1 do
            let n = Mask.count cand_mask.(i) in
            if n > !best_n then begin
              best := i;
              best_n := n
            end
          done;
          !best
        | Config.Round_robin ->
          let found = ref 0 in
          (try
             for i = 0 to k - 1 do
               if cand_pc.(i) > w.rr_pc then begin
                 found := i;
                 raise Exit
               end
             done
           with Exit -> ());
          (* rr_pc is Round_robin state only: the other policies must
             not touch it, or a policy change would perturb schedules it
             never influences. *)
          w.rr_pc <- cand_pc.(!found);
          !found
      in
      (* Chaos scheduler: the injector may override a multi-candidate
         pick with any other legal candidate. *)
      let chosen =
        match faults with
        | Some f when k >= 2 -> Faults.pick f ~warp:w.wid ~k ~chosen
        | _ -> chosen
      in
      sel_pc := cand_pc.(chosen);
      sel_mask := cand_mask.(chosen);
      sel_slot := cand_slot.(chosen);
      true
    end
  in
  (* Allocation-free issue pick: [select_group]/[find_issue] report their
     choice through these cells instead of boxing an option per issue. *)
  let find_issue () =
    let found = ref false in
    let i = ref 1 in
    while (not !found) && !i <= config.n_warps do
      let wid = (!last_warp + !i) mod config.n_warps in
      if select_group warps.(wid) then begin
        last_warp := wid;
        sel_warp := wid;
        found := true
      end;
      incr i
    done;
    !found
  in
  (* The issued slot's member threads in lane order. The array is the
     slot's cache, rebuilt only when the slot's mask moved since it was
     built; the rebuild peels the mask without a closure, so an issue
     allocates nothing here. Only the issue path rebuilds: [regroup] and
     [detach] may run in the middle of an [execute] walk. *)
  let members_of w s active =
    if Mask.equal w.built.(s) active then w.members.(s)
    else begin
      let list =
        if Array.length w.members.(s) > 0 then w.members.(s)
        else begin
          let a = Array.make config.warp_size w.threads.(0) in
          w.members.(s) <- a;
          a
        end
      in
      let rest = ref active and i = ref 0 in
      while not (Mask.is_empty !rest) do
        let lane = Mask.lowest !rest in
        list.(!i) <- w.threads.(lane);
        incr i;
        rest := Mask.remove lane !rest
      done;
      w.built.(s) <- active;
      list
    end
  in
  (* Once per issue the injector may disturb the issuing warp: fire a
     spurious release (a barrier with waiters releases early, with
     threshold-fire semantics) or push every ready lane's wake-up back. *)
  let disturb w =
    match faults with
    | None -> ()
    | Some f -> (
      match Faults.disturb f ~warp:w.wid ~waiting_slots w with
      | None -> ()
      | Some (Faults.D_release b) -> (
        match Barrier_unit.force_release w.barriers b with
        | Some released -> apply_release w released
        | None -> ())
      | Some (Faults.D_stall n) ->
        Array.iter
          (fun th -> if th.status = Ready then th.ready_at <- max th.ready_at !cycle + n)
          w.threads;
        w.ready_stale <- true)
  in
  let running = ref true in
  while !running do
    if find_issue () then begin
      let w = warps.(!sel_warp) in
      let pc = !sel_pc and active = !sel_mask in
      let n = Mask.count active in
      metrics.issues <- metrics.issues + 1;
      if metrics.issues > limit then
        raise
          (Out_of_budget
             ( budget,
               match budget with
               | Issue_cap -> Printf.sprintf "issue budget %d exhausted" limit
               | Fuel -> Printf.sprintf "fuel %d exhausted" limit ));
      pc_issues.(pc) <- pc_issues.(pc) + 1;
      pc_lanes.(pc) <- pc_lanes.(pc) + n;
      (match tracer with
      | Some observe ->
        observe
          { at_cycle = !cycle; warp = w.wid; pc; active = Mask.to_list active;
            where = lprog.locs.(pc) }
      | None -> ());
      (try execute w pc active (members_of w !sel_slot active) n with
      | Valops.Type_error msg ->
        raise (Runtime_error (Printf.sprintf "type error at pc %d (warp %d): %s" pc w.wid msg))
      | Division_by_zero ->
        raise (Runtime_error (Printf.sprintf "division by zero at pc %d (warp %d)" pc w.wid))
      | Invalid_argument msg ->
        raise (Runtime_error (Printf.sprintf "fault at pc %d (warp %d): %s" pc w.wid msg)));
      disturb w;
      incr cycle
    end
    else
      (* Nothing issuable this cycle: advance time to the next ready
         group, finish, or handle an all-parked stall. Group uniformity
         makes the per-warp minimum a min over groups, not lanes, and the
         cache makes the common all-warps-stalled step O(warps). *)
      if metrics.threads_finished >= n_threads then running := false
      else begin
        let next = ref max_int in
        for wi = 0 to config.n_warps - 1 do
          let w = warps.(wi) in
          if w.ready_stale then begin
            let m = ref max_int in
            for s = 0 to w.n_groups - 1 do
              let rep = w.threads.(Mask.lowest w.gmask.(s)) in
              if rep.ready_at < !m then m := rep.ready_at
            done;
            w.ready_min <- !m;
            w.ready_stale <- false
          end;
          if w.ready_min < !next then next := w.ready_min
        done;
        if !next < max_int then cycle := max !next (!cycle + 1)
        else begin
          (* Backstop only: the in-execute watchdog catches a doomed warp
             at its blocking instruction, so reaching here means every
             warp with live threads stalled some other way. *)
          let stalled = ref None in
          Array.iter (fun w -> if !stalled = None && warp_stalled w then stalled := Some w) warps;
          match !stalled with
          | Some w -> recover_or_deadlock w
          | None -> raise (Deadlock "machine idle with no runnable or blocked group")
        end
      end
  done;
  metrics.cycles <- !cycle;
  (* Fold the per-issue metrics out of the count table by opcode. *)
  Array.iteri
    (fun pc n ->
      metrics.active_sum <- metrics.active_sum + pc_lanes.(pc);
      match dcode.(pc) with
      | D.Load | D.Store -> metrics.mem_accesses <- metrics.mem_accesses + n
      | D.Wait | D.Wait_threshold -> metrics.barrier_waits <- metrics.barrier_waits + n
      | D.Join | D.Rejoin -> metrics.barrier_joins <- metrics.barrier_joins + n
      | D.Cancel -> metrics.barrier_cancels <- metrics.barrier_cancels + n
      | _ -> ())
    pc_issues;
  (match faults with
  | Some f -> metrics.faults_injected <- List.length (Faults.events f)
  | None -> ());
  { metrics; memory; pc_issues; pc_lanes; yield_log = List.rev !yield_log }
