(* Unit and property tests for the support library: warp masks, the
   splittable PRNG, and workload distributions. *)

module Mask = Support.Mask
module Splitmix = Support.Splitmix
module Dist = Support.Dist

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---- Mask ---- *)

let test_mask_empty_full () =
  check_int "empty count" 0 (Mask.count Mask.empty);
  check_bool "empty is_empty" true (Mask.is_empty Mask.empty);
  check_int "full 32 count" 32 (Mask.count (Mask.full 32));
  check_int "full 0 count" 0 (Mask.count (Mask.full 0));
  check_bool "full 32 has lane 31" true (Mask.mem 31 (Mask.full 32));
  check_bool "full 32 lacks lane 32" false (Mask.mem 32 (Mask.full 32))

let test_mask_add_remove () =
  let m = Mask.add 5 (Mask.add 2 Mask.empty) in
  check_bool "mem 2" true (Mask.mem 2 m);
  check_bool "mem 5" true (Mask.mem 5 m);
  check_bool "not mem 3" false (Mask.mem 3 m);
  check_int "count" 2 (Mask.count m);
  let m = Mask.remove 2 m in
  check_bool "removed" false (Mask.mem 2 m);
  check_int "count after remove" 1 (Mask.count m);
  (* idempotent *)
  check_bool "add twice" true (Mask.equal (Mask.add 5 m) m);
  check_bool "remove absent" true (Mask.equal (Mask.remove 9 m) m)

let test_mask_set_ops () =
  let a = Mask.of_list [ 0; 1; 2; 3 ] and b = Mask.of_list [ 2; 3; 4; 5 ] in
  check_int "union" 6 (Mask.count (Mask.union a b));
  check_int "inter" 2 (Mask.count (Mask.inter a b));
  check_int "diff" 2 (Mask.count (Mask.diff a b));
  check_bool "subset inter" true (Mask.subset (Mask.inter a b) a);
  check_bool "not subset" false (Mask.subset a b);
  check_bool "disjoint" true (Mask.disjoint (Mask.of_list [ 0 ]) (Mask.of_list [ 1 ]));
  check_bool "not disjoint" false (Mask.disjoint a b)

let test_mask_iteration () =
  let m = Mask.of_list [ 7; 1; 4 ] in
  check (Alcotest.list Alcotest.int) "to_list sorted" [ 1; 4; 7 ] (Mask.to_list m);
  check_int "lowest" 1 (Mask.lowest m);
  check_int "fold sum" 12 (Mask.fold (fun l acc -> l + acc) m 0);
  Alcotest.check_raises "lowest empty" Not_found (fun () -> ignore (Mask.lowest Mask.empty))

let test_mask_errors () =
  let raises_invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises_invalid (fun () -> Mask.add (-1) Mask.empty);
  raises_invalid (fun () -> Mask.add Mask.max_width Mask.empty);
  raises_invalid (fun () -> Mask.singleton (-3));
  raises_invalid (fun () -> Mask.full (-1));
  raises_invalid (fun () -> Mask.full (Mask.max_width + 1))

let test_mask_pp () =
  let m = Mask.of_list [ 0; 2 ] in
  check Alcotest.string "binary" "0b0101" (Format.asprintf "%a" (Mask.pp ~width:4) m);
  check Alcotest.string "hex" "0x5" (Mask.to_hex m)

(* ---- fast paths vs. the original naive implementations ----

   [count] became a SWAR popcount, [lowest] a bit trick, and [iter] a
   set-bit peeling loop. Each must agree with the straightforward
   per-lane scan it replaced, over the full lane range (not just warp
   width 32). *)

let naive_count m =
  let c = ref 0 in
  for lane = 0 to Mask.max_width - 1 do
    if Mask.mem lane m then incr c
  done;
  !c

let naive_lowest m =
  let rec loop lane =
    if lane >= Mask.max_width then raise Not_found
    else if Mask.mem lane m then lane
    else loop (lane + 1)
  in
  loop 0

let naive_iter f m =
  for lane = 0 to Mask.max_width - 1 do
    if Mask.mem lane m then f lane
  done

let collect iter_fn m =
  let out = ref [] in
  iter_fn (fun lane -> out := lane :: !out) m;
  List.rev !out

let test_mask_count_matches_naive () =
  let cases =
    [ Mask.empty; Mask.full 1; Mask.full 32; Mask.full Mask.max_width;
      Mask.singleton (Mask.max_width - 1);
      Mask.of_list [ 0; 3; 31; 32; 60; Mask.max_width - 1 ] ]
  in
  List.iter
    (fun m -> check_int (Mask.to_hex m) (naive_count m) (Mask.count m))
    cases

let test_mask_lowest_matches_naive () =
  List.iter
    (fun m -> check_int (Mask.to_hex m) (naive_lowest m) (Mask.lowest m))
    [ Mask.full 1; Mask.full 32; Mask.singleton (Mask.max_width - 1);
      Mask.of_list [ 5; 40; 61 ] ]

let test_mask_iter_matches_naive () =
  List.iter
    (fun m ->
      check (Alcotest.list Alcotest.int) (Mask.to_hex m) (collect naive_iter m)
        (collect Mask.iter m))
    [ Mask.empty; Mask.full 32; Mask.of_list [ 0; 17; 33; 61 ] ]

let lane_gen = QCheck2.Gen.int_range 0 31
let lanes_gen = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 32) lane_gen

let prop_mask_union_count =
  QCheck2.Test.make ~name:"mask: |a ∪ b| <= |a| + |b| and >= max" ~count:200
    QCheck2.Gen.(pair lanes_gen lanes_gen)
    (fun (la, lb) ->
      let a = Mask.of_list la and b = Mask.of_list lb in
      let u = Mask.count (Mask.union a b) in
      u <= Mask.count a + Mask.count b && u >= max (Mask.count a) (Mask.count b))

let prop_mask_partition =
  QCheck2.Test.make ~name:"mask: (a ∩ b) ∪ (a \\ b) = a" ~count:200
    QCheck2.Gen.(pair lanes_gen lanes_gen)
    (fun (la, lb) ->
      let a = Mask.of_list la and b = Mask.of_list lb in
      Mask.equal (Mask.union (Mask.inter a b) (Mask.diff a b)) a)

let prop_mask_roundtrip =
  QCheck2.Test.make ~name:"mask: to_list/of_list roundtrip" ~count:200 lanes_gen (fun ls ->
      let m = Mask.of_list ls in
      Mask.equal (Mask.of_list (Mask.to_list m)) m
      && List.for_all (fun l -> Mask.mem l m) ls)

let wide_lanes_gen =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 32) (QCheck2.Gen.int_range 0 (Mask.max_width - 1))

let prop_mask_fast_paths =
  QCheck2.Test.make ~name:"mask: count/lowest/iter match naive scans" ~count:500 wide_lanes_gen
    (fun ls ->
      let m = Mask.of_list ls in
      Mask.count m = naive_count m
      && collect Mask.iter m = collect naive_iter m
      && (Mask.is_empty m || Mask.lowest m = naive_lowest m))

let prop_mask_compare_lex =
  QCheck2.Test.make ~name:"mask: compare_lex orders like lane lists" ~count:500
    QCheck2.Gen.(pair wide_lanes_gen wide_lanes_gen)
    (fun (la, lb) ->
      let a = Mask.of_list la and b = Mask.of_list lb in
      compare (Mask.compare_lex a b) 0 = compare (compare (Mask.to_list a) (Mask.to_list b)) 0)

(* ---- boundary warp widths ----

   The SWAR fast paths must agree with a per-bit reference model at the
   degenerate width 1, around the 32-lane warp boundary, and at the
   representation limit. [max_width] is [Sys.int_size - 1] (62 on 64-bit
   OCaml), so a 63- or 64-lane warp must be rejected with
   [Invalid_argument], never silently truncated. *)

let test_mask_boundary_widths () =
  let rng = Splitmix.create 0x4d61736bL in
  let random_model width = Array.init width (fun _ -> Splitmix.int rng 3 = 0) in
  let mask_of_model model =
    let m = ref Mask.empty in
    Array.iteri (fun lane b -> if b then m := Mask.add lane !m) model;
    !m
  in
  List.iter
    (fun width ->
      for _round = 1 to 50 do
        let model = random_model width in
        let m = mask_of_model model in
        let expected = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 model in
        check_int (Printf.sprintf "count at width %d" width) expected (Mask.count m);
        Array.iteri
          (fun lane b -> check_bool (Printf.sprintf "mem %d/%d" lane width) b (Mask.mem lane m))
          model;
        let lane = Splitmix.int rng width in
        let cleared = Mask.remove lane m in
        check_bool "cleared" false (Mask.mem lane cleared);
        check_int "count after clear"
          (expected - if model.(lane) then 1 else 0)
          (Mask.count cleared);
        let m2 = mask_of_model (random_model width) in
        check_int
          (Printf.sprintf "compare_lex sign at width %d" width)
          (compare (compare (Mask.to_list m) (Mask.to_list m2)) 0)
          (compare (Mask.compare_lex m m2) 0)
      done)
    [ 1; 31; 32; Mask.max_width ];
  List.iter
    (fun width ->
      let raises f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (Printf.sprintf "width %d accepted" width)
      in
      raises (fun () -> Mask.full width);
      raises (fun () -> Mask.singleton (width - 1));
      raises (fun () -> Mask.add (width - 1) Mask.empty))
    [ 63; 64 ]

(* ---- Domain_pool ---- *)

(* Exercise the genuinely parallel path even on single-core CI by
   forcing the worker count through the env override, restoring the
   previous setting afterwards. *)
let with_domains n f =
  let previous =
    match Sys.getenv_opt Support.Domain_pool.env_var with
    | Some v -> v
    | None -> string_of_int (Domain.recommended_domain_count ())
  in
  Unix.putenv Support.Domain_pool.env_var (string_of_int n);
  Fun.protect ~finally:(fun () -> Unix.putenv Support.Domain_pool.env_var previous) f

let test_domain_pool_map_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun n ->
      with_domains n (fun () ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "%d domains" n)
            expected
            (Support.Domain_pool.map (fun x -> x * x) xs)))
    [ 1; 2; 4; 7 ]

let test_domain_pool_exception_order () =
  (* Whatever domain hits an exception first, the one replayed must be
     the earliest failing list element — determinism extends to errors. *)
  with_domains 4 (fun () ->
      match
        Support.Domain_pool.map
          (fun x -> if x mod 7 = 3 then failwith (Printf.sprintf "boom %d" x) else x)
          (List.init 50 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "earliest element wins" "boom 3" msg)

let test_domain_pool_env_validation () =
  with_domains 2 (fun () ->
      Unix.putenv Support.Domain_pool.env_var "zero";
      match Support.Domain_pool.domains () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument for a non-numeric override")

(* ---- Splitmix ---- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42L and b = Splitmix.create 42L in
  for _ = 1 to 20 do
    check (Alcotest.int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_of_ints_distinct () =
  let draws rng = List.init 8 (fun _ -> Splitmix.next_int64 rng) in
  let a = draws (Splitmix.of_ints 1 0 0) in
  let b = draws (Splitmix.of_ints 1 0 1) in
  let c = draws (Splitmix.of_ints 1 1 0) in
  check_bool "lane changes stream" true (a <> b);
  check_bool "warp changes stream" true (a <> c && b <> c)

let test_splitmix_copy_split () =
  let a = Splitmix.create 7L in
  let b = Splitmix.copy a in
  check Alcotest.int64 "copy same" (Splitmix.next_int64 a) (Splitmix.next_int64 b);
  let c = Splitmix.split a in
  check_bool "split differs" true (Splitmix.next_int64 c <> Splitmix.next_int64 a)

(* Known answers, captured from the boxed-record generator before its
   state moved into bytes: the first outputs of both constructors
   through every draw, and of a split-off stream. Every per-thread
   stream and every fault plan is a function of these. *)
let test_splitmix_known_answers () =
  let i64 = Alcotest.(list int64) in
  let ints = Alcotest.(list int) in
  let floats = Alcotest.(list (float 0.0)) in
  let bools = Alcotest.(list bool) in
  let draw n f g = List.init n (fun _ -> f g) in
  let known name g ~raw ~ints:i ~floats:f ~bools:b ~split ~after_split =
    check i64 (name ^ " next_int64") raw (draw 3 Splitmix.next_int64 g);
    check ints (name ^ " int 1000") i (draw 3 (fun g -> Splitmix.int g 1000) g);
    check floats (name ^ " float") f (draw 3 Splitmix.float g);
    check bools (name ^ " bool") b (draw 4 Splitmix.bool g);
    let s = Splitmix.split g in
    check i64 (name ^ " split") split (draw 2 Splitmix.next_int64 s);
    check Alcotest.int64 (name ^ " after split") after_split (Splitmix.next_int64 g)
  in
  known "create 42L" (Splitmix.create 42L)
    ~raw:[ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    ~ints:[ 860; 250; 350 ]
    ~floats:[ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ]
    ~bools:[ false; true; false; false ]
    ~split:[ -1979294700176912355L; 2672107061431535764L ]
    ~after_split:(-6176718654468026660L);
  known "of_ints 42 0 0" (Splitmix.of_ints 42 0 0)
    ~raw:[ 3370201870272828264L; 3563684007782942589L; -2090823954905221462L ]
    ~ints:[ 646; 641; 28 ]
    ~floats:[ 0x1.737217060b651p-1; 0x1.b41b6829c28bcp-3; 0x1.c0b9877dbac7ap-1 ]
    ~bools:[ true; false; true; false ]
    ~split:[ 2138614377908751518L; 4900169994193558519L ]
    ~after_split:1768447228055316966L

let test_splitmix_int_errors () =
  let rng = Splitmix.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int rng 0))

let prop_splitmix_int_range =
  QCheck2.Test.make ~name:"splitmix: int in [0, bound)" ~count:500
    QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Splitmix.create (Int64.of_int seed) in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let prop_splitmix_float_range =
  QCheck2.Test.make ~name:"splitmix: float in [0, 1)" ~count:500 QCheck2.Gen.int (fun seed ->
      let rng = Splitmix.create (Int64.of_int seed) in
      let x = Splitmix.float rng in
      x >= 0.0 && x < 1.0)

(* ---- Dist ---- *)

let test_dist_validate () =
  let invalid d = match Dist.validate d with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (Dist.Constant (-1));
  invalid (Dist.Uniform (5, 2));
  invalid (Dist.Uniform (-1, 2));
  invalid (Dist.Geometric { p = 0.0; cap = 5 });
  invalid (Dist.Geometric { p = 1.5; cap = 5 });
  invalid (Dist.Geometric { p = 0.5; cap = -1 });
  invalid (Dist.Weighted []);
  invalid (Dist.Weighted [ (1, -0.5) ]);
  invalid (Dist.Weighted [ (1, 0.0); (2, 0.0) ]);
  invalid (Dist.Bimodal { lo = (5, 2); hi = (1, 2); p_hi = 0.5 });
  invalid (Dist.Bimodal { lo = (1, 2); hi = (1, 2); p_hi = 1.5 });
  Dist.validate (Dist.Uniform (0, 0));
  Dist.validate (Dist.Weighted [ (3, 1.0) ])

let test_dist_means () =
  check (Alcotest.float 1e-9) "constant mean" 7.0 (Dist.mean (Dist.Constant 7));
  check (Alcotest.float 1e-9) "uniform mean" 5.0 (Dist.mean (Dist.Uniform (4, 6)));
  (* Geometric with p = 1 never fails: mean 0. *)
  check (Alcotest.float 1e-9) "geometric p=1" 0.0 (Dist.mean (Dist.Geometric { p = 1.0; cap = 10 }));
  check (Alcotest.float 1e-9) "weighted mean" 2.0
    (Dist.mean (Dist.Weighted [ (1, 1.0); (3, 1.0) ]))

let test_dist_sampling_matches_mean () =
  (* Monte Carlo estimate of the mean should land near the analytic one. *)
  let rng = Splitmix.create 99L in
  let dists =
    [
      Dist.Uniform (4, 321);
      Dist.Geometric { p = 0.3; cap = 24 };
      Dist.Weighted [ (2, 1.0); (10, 3.0) ];
      Dist.Bimodal { lo = (4, 40); hi = (220, 321); p_hi = 0.2 };
    ]
  in
  List.iter
    (fun d ->
      let n = 20000 in
      let total = ref 0 in
      for _ = 1 to n do
        total := !total + Dist.sample d rng
      done;
      let estimate = float_of_int !total /. float_of_int n in
      let mean = Dist.mean d in
      if Float.abs (estimate -. mean) > 0.05 *. mean +. 0.5 then
        Alcotest.failf "mean mismatch for %s: analytic %.3f, sampled %.3f"
          (Format.asprintf "%a" Dist.pp d) mean estimate)
    dists

let prop_dist_sample_nonneg =
  let dist_gen =
    QCheck2.Gen.oneof
      [
        QCheck2.Gen.map (fun n -> Dist.Constant n) (QCheck2.Gen.int_range 0 100);
        QCheck2.Gen.map
          (fun (a, b) -> Dist.Uniform (min a b, max a b))
          QCheck2.Gen.(pair (int_range 0 50) (int_range 0 400));
        QCheck2.Gen.map
          (fun (p, cap) -> Dist.Geometric { p = 0.01 +. (p *. 0.98); cap })
          QCheck2.Gen.(pair (float_bound_exclusive 1.0) (int_range 0 64));
      ]
  in
  QCheck2.Test.make ~name:"dist: samples in range" ~count:300
    QCheck2.Gen.(pair dist_gen int)
    (fun (d, seed) ->
      let rng = Splitmix.create (Int64.of_int seed) in
      let x = Dist.sample d rng in
      x >= 0
      &&
      match d with
      | Dist.Constant n -> x = n
      | Dist.Uniform (lo, hi) -> x >= lo && x <= hi
      | Dist.Geometric { cap; _ } -> x <= cap
      | Dist.Weighted _ | Dist.Bimodal _ -> true)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "support.mask",
      [
        Alcotest.test_case "empty/full" `Quick test_mask_empty_full;
        Alcotest.test_case "add/remove" `Quick test_mask_add_remove;
        Alcotest.test_case "set ops" `Quick test_mask_set_ops;
        Alcotest.test_case "iteration" `Quick test_mask_iteration;
        Alcotest.test_case "errors" `Quick test_mask_errors;
        Alcotest.test_case "pp" `Quick test_mask_pp;
        Alcotest.test_case "count matches naive" `Quick test_mask_count_matches_naive;
        Alcotest.test_case "lowest matches naive" `Quick test_mask_lowest_matches_naive;
        Alcotest.test_case "iter matches naive" `Quick test_mask_iter_matches_naive;
        Alcotest.test_case "boundary widths" `Quick test_mask_boundary_widths;
        qtest prop_mask_union_count;
        qtest prop_mask_partition;
        qtest prop_mask_roundtrip;
        qtest prop_mask_fast_paths;
        qtest prop_mask_compare_lex;
      ] );
    ( "support.domain_pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_domain_pool_map_order;
        Alcotest.test_case "exception replay order" `Quick test_domain_pool_exception_order;
        Alcotest.test_case "env validation" `Quick test_domain_pool_env_validation;
      ] );
    ( "support.splitmix",
      [
        Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
        Alcotest.test_case "of_ints distinct" `Quick test_splitmix_of_ints_distinct;
        Alcotest.test_case "copy/split" `Quick test_splitmix_copy_split;
        Alcotest.test_case "known answers" `Quick test_splitmix_known_answers;
        Alcotest.test_case "int errors" `Quick test_splitmix_int_errors;
        qtest prop_splitmix_int_range;
        qtest prop_splitmix_float_range;
      ] );
    ( "support.dist",
      [
        Alcotest.test_case "validate" `Quick test_dist_validate;
        Alcotest.test_case "means" `Quick test_dist_means;
        Alcotest.test_case "sampling matches mean" `Quick test_dist_sampling_matches_mean;
        qtest prop_dist_sample_nonneg;
      ] );
  ]
