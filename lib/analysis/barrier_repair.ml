(* Repair synthesis for srlint findings (GPURepair-style): enumerate
   candidate minimal barrier edits per finding category, then search
   cost-ordered edit sequences — fewest edits first, ties broken by the
   §4.5 cost model — accepting a candidate program only when a full
   Barrier_safety.check re-run comes back empty and the IR verifier
   stays clean. The acceptance condition is the point: a repair is not a
   heuristic patch but a placement the checker *proves* deadlock-free,
   so everything downstream (the differential oracles, the digest
   contract) holds of it by the same argument as for an unedited clean
   program. *)

module T = Ir.Types
module BS = Barrier_safety
open Sets

type edit =
  | Insert_cancel of { in_func : string; block : int; index : int; cancel : T.barrier }
      (* withdraw [cancel] immediately before the wait/call at the site,
         the static twin of Deconflict's dynamic-cancel resolution *)
  | Move_wait of {
      in_func : string;
      from_block : int;
      from_index : int;
      to_block : int;
      slot : T.barrier;
      hoist : bool; (* true when [to_block] is the BSSY join block *)
    }
  | Split_slot of {
      in_func : string;
      slot : T.barrier;
      fresh : T.barrier; (* the program's next_barrier at enumeration time *)
      sites : (int * int) list; (* (block, index) sites retargeted to [fresh] *)
    }
  | Remap_slot of { in_func : string; block : int; index : int; to_slot : T.barrier }
  | Drop_barrier of { in_func : string; block : int; index : int; slot : T.barrier }

let edit_class = function
  | Insert_cancel _ -> "insert-cancel"
  | Move_wait { hoist = true; _ } -> "hoist-wait"
  | Move_wait { hoist = false; _ } -> "sink-wait"
  | Split_slot _ -> "split-slot"
  | Remap_slot _ -> "remap-slot"
  | Drop_barrier _ -> "drop-barrier"

let edit_func = function
  | Insert_cancel { in_func; _ }
  | Move_wait { in_func; _ }
  | Split_slot { in_func; _ }
  | Remap_slot { in_func; _ }
  | Drop_barrier { in_func; _ } -> in_func

let edit_anchor = function
  | Insert_cancel { block; index; _ } -> (block, index)
  | Move_wait { from_block; from_index; _ } -> (from_block, from_index)
  | Split_slot { sites; _ } -> (match sites with s :: _ -> s | [] -> (0, 0))
  | Remap_slot { block; index; _ } -> (block, index)
  | Drop_barrier { block; index; _ } -> (block, index)

let edit_slot = function
  | Insert_cancel { cancel; _ } -> cancel
  | Move_wait { slot; _ } -> slot
  | Split_slot { slot; _ } -> slot
  | Remap_slot { to_slot; _ } -> to_slot
  | Drop_barrier { slot; _ } -> slot

let describe = function
  | Insert_cancel { cancel; _ } ->
    Printf.sprintf "insert cancel.b%d before the blocking wait" cancel
  | Move_wait { slot; to_block; hoist; _ } ->
    Printf.sprintf "%s the wait on b%d into bb%d%s"
      (if hoist then "hoist" else "sink")
      slot to_block
      (if hoist then " (its join block)" else "")
  | Split_slot { slot; fresh; sites; _ } ->
    Printf.sprintf "split slot b%d: retarget %d trailing site(s) to fresh slot b%d" slot
      (List.length sites) fresh
  | Remap_slot { to_slot; _ } -> Printf.sprintf "remap to allocated slot b%d" to_slot
  | Drop_barrier { slot; _ } -> Printf.sprintf "delete the primitive on b%d" slot

(* Same key=value shape as Barrier_safety.pp_machine, under the srfix
   prefix; edit= names the class with the hint= vocabulary. *)
let pp_edit_machine ppf e =
  let block, index = edit_anchor e in
  Format.fprintf ppf "srfix: edit=%s func=%s block=bb%d index=%d slot=b%d fix=%s"
    (edit_class e) (edit_func e) block index (edit_slot e) (describe e)

type outcome =
  | Clean
  | Repaired of { program : T.program; edits : edit list; cost : float; explored : int }
  | Unrepairable of { blocking : BS.finding; explored : int }

(* Mutates [p] (callers pass a private copy). *)
let apply (p : T.program) edit =
  let func name = Hashtbl.find p.T.funcs name in
  match edit with
  | Insert_cancel { in_func; block; index; cancel } ->
    Ir.Edit.insert_at (func in_func) block index (T.Cancel cancel)
  | Move_wait { in_func; from_block; from_index; to_block; _ } ->
    Ir.Edit.move_inst (func in_func) ~from_block ~from_index ~to_block
  | Split_slot { in_func; fresh; sites; _ } ->
    let f = func in_func in
    List.iter (fun (b, i) -> Ir.Edit.rewrite_slot_at f b i fresh) sites;
    p.next_barrier <- max p.next_barrier (fresh + 1)
  | Remap_slot { in_func; block; index; to_slot } ->
    Ir.Edit.rewrite_slot_at (func in_func) block index to_slot
  | Drop_barrier { in_func; block; index; _ } ->
    ignore (Ir.Edit.remove_at (func in_func) block index)

(* ------------------------------------------------------------------ *)
(* Candidate enumeration                                               *)
(* ------------------------------------------------------------------ *)

(* All program points where a thread may block on [slot]: literal waits
   plus calls whose callee entry-waits on it (a call is the wait event in
   the caller, §4.4, so it is a cancel-insertion point too).
   Deterministic order: (func, block, index). *)
let wait_sites (p : T.program) slot =
  let entry_waits = Barrier_analysis.entry_waits p in
  List.concat_map
    (fun n ->
      let f = Hashtbl.find p.T.funcs n in
      List.concat_map
        (fun bid ->
          (T.block f bid).insts
          |> List.mapi (fun i inst -> (i, inst))
          |> List.filter_map (fun (i, inst) ->
                 match inst with
                 | T.Wait x | T.Wait_threshold (x, _) when x = slot -> Some (n, bid, i)
                 | T.Call { callee; _ } when Int_set.mem slot (entry_waits callee) ->
                   Some (n, bid, i)
                 | _ -> None))
        (T.block_ids f))
    (T.func_names p)

(* Barrier-primitive sites on [slot] inside one function, ordered by
   (block, index) — the split-point enumeration order. *)
let slot_sites_in (p : T.program) fname slot =
  match Hashtbl.find_opt p.T.funcs fname with
  | None -> []
  | Some f ->
    List.concat_map
      (fun bid ->
        (T.block f bid).insts
        |> List.mapi (fun i inst -> (i, inst))
        |> List.filter_map (fun (i, inst) ->
               match T.barrier_of inst with
               | Some x when x = slot -> Some (bid, i, inst)
               | _ -> None))
      (T.block_ids f)

let is_arrive = function T.Join _ | T.Rejoin _ -> true | _ -> false

(* Slots with at least one arrive site anywhere — the remap targets. *)
let arrive_slots (p : T.program) =
  List.fold_left
    (fun acc n ->
      let f = Hashtbl.find p.T.funcs n in
      let acc = ref acc in
      T.iter_blocks f (fun b ->
          List.iter
            (fun i ->
              match i with T.Join x | T.Rejoin x -> acc := Int_set.add x !acc | _ -> ())
            b.insts);
      !acc)
    Int_set.empty (T.func_names p)

let weights = Costmodel.default_weights

(* Estimated execution frequency of a block: default_trip per loop
   nesting level, the §4.5 static guess. This is the tie-breaker between
   equally-sized repairs — prefer inserting the cancel (or landing the
   moved wait) in the shallowest block. *)
let block_freq (p : T.program) fname bid =
  match Hashtbl.find_opt p.T.funcs fname with
  | None -> 1.0
  | Some f ->
    let g = Cfg.of_func f in
    if not (Cfg.mem g bid) then 1.0
    else
      let loops = Loops.compute g (Dom.compute g) in
      float_of_int weights.Costmodel.default_trip ** float_of_int (Loops.depth_of loops bid)

let wb = float_of_int weights.Costmodel.barrier

(* Split candidates for [slot] in [fname]: cut the (block, index)-ordered
   site list at an arrive site and retarget the suffix to a fresh slot —
   the inverse of merging two independent barrier regions into one id. *)
let split_candidates (p : T.program) fname slot =
  let sites = slot_sites_in p fname slot in
  let fresh = p.T.next_barrier in
  let n = List.length sites in
  List.filteri (fun k (_, _, inst) -> k > 0 && k < n && is_arrive inst) sites
  |> List.filteri (fun i _ -> i < 3)
  |> List.map (fun (cut_block, cut_index, _) ->
         let suffix =
           List.filter
             (fun (b, i, _) -> (b, i) >= (cut_block, cut_index))
             sites
           |> List.map (fun (b, i, _) -> (b, i))
         in
         (Split_slot { in_func = fname; slot; fresh; sites = suffix }, wb))

(* Cancel-insertion candidates: withdraw [cancel] immediately before
   every site where a thread may block on [waited] while holding it. *)
let cancel_candidates (p : T.program) ~waited ~cancel =
  List.map
    (fun (fn, b, i) ->
      (Insert_cancel { in_func = fn; block = b; index = i; cancel }, wb *. block_freq p fn b))
    (wait_sites p waited)

let candidates ?(speculative = []) (p : T.program) (fd : BS.finding) =
  match fd.BS.category with
  | BS.Bypassable_wait ->
    (* Break the cycle: before each point where a cycle slot is waited,
       withdraw one of the other cycle slots (the bypassable edge). *)
    let cycle = match fd.BS.related with [] -> [ fd.BS.slot ] | c -> c in
    List.concat_map
      (fun waited ->
        List.concat_map
          (fun cancel -> if cancel = waited then [] else cancel_candidates p ~waited ~cancel)
          cycle)
      cycle
  | BS.Unseparated_overlap ->
    let x = fd.BS.slot in
    let y = match fd.BS.related with other :: _ -> other | [] -> x in
    split_candidates p fd.BS.site.BS.in_func x
    @ split_candidates p fd.BS.site.BS.in_func y
    @ cancel_candidates p ~waited:x ~cancel:y
    @ cancel_candidates p ~waited:y ~cancel:x
  | BS.Double_arrive ->
    let fn = fd.BS.site.BS.in_func in
    let here = (fd.BS.site.BS.block, fd.BS.site.BS.index) in
    (* Prefer the split whose cut is the offending join itself: the
       arrive-after-arrive region becomes its own fresh slot. *)
    let splits = split_candidates p fn fd.BS.slot in
    let at_site, elsewhere =
      List.partition
        (fun (e, _) ->
          match e with Split_slot { sites = s :: _; _ } -> s = here | _ -> false)
        splits
    in
    at_site @ elsewhere
    @ [
        ( Drop_barrier
            { in_func = fn; block = fd.BS.site.BS.block; index = fd.BS.site.BS.index;
              slot = fd.BS.slot },
          4.0 *. wb );
      ]
  | BS.Unallocated_slot ->
    let fn = fd.BS.site.BS.in_func in
    let site = (fd.BS.site.BS.block, fd.BS.site.BS.index) in
    let targets = Int_set.elements (arrive_slots p) in
    let targets = List.filteri (fun i _ -> i < 4) targets in
    List.map
      (fun t ->
        ( Remap_slot { in_func = fn; block = fst site; index = snd site; to_slot = t },
          2.0 *. wb ))
      (List.filter (fun t -> t <> fd.BS.slot) targets)
    @ [
        ( Drop_barrier { in_func = fn; block = fst site; index = snd site; slot = fd.BS.slot },
          4.0 *. wb );
      ]
  | BS.Undominated_wait -> (
    let fn = fd.BS.site.BS.in_func in
    let bid = fd.BS.site.BS.block and idx = fd.BS.site.BS.index in
    let f = Hashtbl.find_opt p.T.funcs fn in
    let inst =
      match f with
      | Some f -> List.nth_opt (T.block f bid).T.insts idx
      | None -> None
    in
    let sp =
      List.find_opt
        (fun (s : BS.speculative) -> s.BS.sfunc = fn && s.BS.slot = fd.BS.slot)
        speculative
    in
    match inst with
    | Some (T.Wait _ | T.Wait_threshold _) ->
      let moves =
        match (sp, f) with
        | Some sp, Some f ->
          let g = Cfg.of_func f in
          let jb = sp.BS.join_block in
          if not (Cfg.mem g jb) then []
          else begin
            let dom = Dom.compute g in
            let hoist =
              ( Move_wait
                  { in_func = fn; from_block = bid; from_index = idx; to_block = jb;
                    slot = fd.BS.slot; hoist = true },
                wb *. block_freq p fn jb )
            in
            let sinks =
              List.filter
                (fun b -> b <> jb && b <> bid && Dom.dominates dom jb b)
                (List.sort compare (Cfg.nodes g))
              |> List.filteri (fun i _ -> i < 3)
              |> List.map (fun b ->
                     ( Move_wait
                         { in_func = fn; from_block = bid; from_index = idx; to_block = b;
                           slot = fd.BS.slot; hoist = false },
                       wb *. block_freq p fn b ))
            in
            hoist :: sinks
          end
        | _ -> []
      in
      moves
      @ [
          ( Insert_cancel { in_func = fn; block = bid; index = idx; cancel = fd.BS.slot },
            wb *. block_freq p fn bid );
          ( Drop_barrier { in_func = fn; block = bid; index = idx; slot = fd.BS.slot },
            4.0 *. wb );
        ]
    | Some (T.Call _) ->
      (* A predicted call site outside the join's dominance region: the
         lane withdraws before calling, turning the callee's entry wait
         into a no-op for it. *)
      [
        ( Insert_cancel { in_func = fn; block = bid; index = idx; cancel = fd.BS.slot },
          wb *. block_freq p fn bid );
      ]
    | _ -> [])

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

let default_max_edits = 6
let default_max_states = 256

module Frontier = Map.Make (struct
  type t = int * float * int (* (edits so far, accumulated cost, insertion seq) *)

  let compare = compare
end)

let repair ?(speculative = []) ?(max_edits = default_max_edits)
    ?(max_states = default_max_states) (p : T.program) =
  let check q = BS.check ~speculative q in
  match check p with
  | [] -> Clean
  | fs0 ->
    let key q = Format.asprintf "%a" Ir.Printer.pp_program q in
    let seen = Hashtbl.create 64 in
    Hashtbl.replace seen (key p) ();
    (* States carry their remaining findings; [] marks a solved state.
       Acceptance happens when a solved state is POPPED, not when it is
       generated: the frontier orders by (edit count, cost, insertion
       order), so the repair returned is minimal in edits, then cheapest
       by the §4.5 cost model, then first-enumerated — the documented
       tie-break. *)
    let frontier = ref (Frontier.singleton (0, 0.0, 0) (p, [], fs0)) in
    let seq = ref 0 in
    let explored = ref 0 in
    (* For the unrepairable report: the first finding of the
       closest-to-clean state reached, so the caller learns what
       resisted repair, not just what the input looked like. *)
    let blocking = ref (List.hd fs0) in
    let best = ref (List.length fs0, 0) in
    let result = ref None in
    while !result = None && (not (Frontier.is_empty !frontier)) && !explored < max_states do
      let ((n_edits, cost, _) as k), (q, edits, fs) = Frontier.min_binding !frontier in
      frontier := Frontier.remove k !frontier;
      match fs with
      | [] -> result := Some (Repaired { program = q; edits; cost; explored = !explored })
      | first :: _ ->
        incr explored;
        if (List.length fs, n_edits) < !best then begin
          best := (List.length fs, n_edits);
          blocking := first
        end;
        if n_edits < max_edits then
          List.iter
            (fun (e, ecost) ->
              let q' = Ir.Builder.copy_program q in
              match apply q' e with
              | exception _ -> ()
              | () ->
                if Ir.Verifier.check_program q' = [] then begin
                  let kq = key q' in
                  if not (Hashtbl.mem seen kq) then begin
                    Hashtbl.replace seen kq ();
                    incr seq;
                    frontier :=
                      Frontier.add
                        (n_edits + 1, cost +. ecost, !seq)
                        (q', edits @ [ e ], check q')
                        !frontier
                  end
                end)
            (candidates ~speculative q first)
    done;
    (match !result with
    | Some r -> r
    | None -> Unrepairable { blocking = !blocking; explored = !explored })

let render_edits edits =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_edit_machine) edits)
