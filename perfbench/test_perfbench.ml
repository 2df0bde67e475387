(* The benchmark's own tests: seeded inputs repeat, the percentile and
   population helpers do what the report says, and design-sweep's
   populations at the default and hold-out seeds keep p50 and the tail
   inside one population each. *)

open Perfbench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Generators} *)

let jobs seed = Array.map Gen.job_to_string (Gen.design_jobs ~seed ~n:40)

let test_design_jobs () =
  Alcotest.(check (array string)) "same seed, same jobs" (jobs 7) (jobs 7);
  check_bool "another seed, other jobs" true (jobs 7 <> jobs 8);
  let js = Gen.design_jobs ~seed:7 ~n:41 in
  let count f = Array.fold_left (fun n j -> if Gen.family_index j = f then n + 1 else n) 0 js in
  Alcotest.(check (list int)) "a quarter per family" [ 11; 10; 10; 10 ]
    (List.init 4 count);
  check_int "every job distinct" 41
    (List.length (List.sort_uniq compare (Array.to_list (Array.map Gen.job_to_string js))))

let test_serve_inputs () =
  let a = Gen.serve_arrivals ~seed:3 ~count:5000 in
  check_bool "same seed, same arrivals" true (a = Gen.serve_arrivals ~seed:3 ~count:5000);
  check_bool "another seed, other arrivals" true (a <> Gen.serve_arrivals ~seed:4 ~count:5000);
  check_bool "arrival times increase" true
    (Array.for_all Fun.id (Array.init 4999 (fun i -> a.(i) < a.(i + 1))));
  let q = Gen.serve_queries ~seed:3 ~count:500 ~states:163 in
  check_bool "same seed, same queries" true (q = Gen.serve_queries ~seed:3 ~count:500 ~states:163);
  check_bool "queries in range" true (Array.for_all (fun x -> x >= 0 && x < 163) q)

let test_fleet_plan () =
  let p = Gen.fleet_plan ~seed:5 ~ops:20 and p' = Gen.fleet_plan ~seed:5 ~ops:20 in
  check_bool "same seed, same plan" true (p = p');
  check_bool "another seed, other plan" true (p <> Gen.fleet_plan ~seed:6 ~ops:20);
  let dwell = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 (Gen.fleet_phases p) in
  Alcotest.(check (float 1e-9)) "phases cover the horizon" p.Gen.horizon dwell

(* {1 Order statistics} *)

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_tail () =
  let t = Stats.tail (ramp 20) in
  check_int "n=20: rank 10" 10 t.Stats.rank;
  Alcotest.(check (float 0.0)) "n=20: value" 10.0 t.Stats.value;
  Alcotest.(check (float 1e-12)) "n=20: p50" 50.0 t.Stats.percentile;
  check_int "n=20: 10 beyond" 10 t.Stats.beyond;
  let t = Stats.tail (ramp 1000) in
  Alcotest.(check (float 1e-12)) "n=1000: p99" 99.0 t.Stats.percentile;
  Alcotest.(check (float 0.0)) "n=1000: value" 990.0 t.Stats.value;
  let t = Stats.tail (ramp 11) in
  check_int "n=11: the minimum, 10 beyond" 1 t.Stats.rank;
  let t = Stats.tail (ramp 5) in
  check_int "n=5: the maximum" 5 t.Stats.rank;
  check_int "n=5: nothing beyond" 0 t.Stats.beyond;
  Alcotest.(check (float 0.0)) "median, odd" 3.0 (Stats.median (ramp 5));
  Alcotest.(check (float 0.0)) "median, even" 2.5 (Stats.median (ramp 4))

(* {1 Population rule} *)

let test_place () =
  let counts = [ ("a", 10); ("b", 80); ("c", 10) ] in
  check_int "margin at n=100" 2 (Stats.margin 100);
  let p = Stats.place ~counts ~rank:50 in
  check_bool "mid b" true (p.Stats.population = "b" && p.Stats.inside);
  let p = Stats.place ~counts ~rank:11 in
  check_bool "one rank into b is a boundary" false p.Stats.inside;
  let p = Stats.place ~counts ~rank:12 in
  check_bool "two ranks into b is inside" true p.Stats.inside;
  let p = Stats.place ~counts ~rank:95 in
  check_bool "the end of the data is no boundary" true
    (p.Stats.population = "c" && p.Stats.inside);
  let p = Stats.place ~counts:[ ("a", 0); ("b", 5) ] ~rank:1 in
  check_bool "empty populations are skipped" true (p.Stats.population = "b");
  let latencies = [| 1.; 2.; 3.; 10.; 11.; 12. |] in
  let labels = [| "x"; "x"; "x"; "y"; "y"; "y" |] in
  Alcotest.(check (float 1e-12)) "purity: 3 of the 4 ops within 2 ranks" 0.75
    (Stats.purity ~latencies ~labels ~rank:2 ~population:"x")

(* design-sweep's populations follow from model size alone, so its
   counts at the contract's run length can be computed without a run:
   at the default seed 1 and the hold-out seed 2026, p50 and the tail
   must each fall inside one population.  (serve-day's and fleet-day's
   are checked by every run's verdict.) *)
let test_design_placement () =
  let contract = Common.contract ~path:"../BENCHMARK.json" () in
  let n = Design_sweep.ops_for ~seconds:contract.Common.run_seconds in
  List.iter
    (fun seed ->
      let labels =
        Array.map Design_sweep.expected_population (Gen.design_jobs ~seed ~n)
      in
      let counts = Common.tally ~order:[ "dense"; "sparse-path" ] labels in
      List.iter
        (fun (what, rank) ->
          let p = Stats.place ~counts ~rank in
          check_bool
            (Printf.sprintf "seed %d: %s rank %d/%d inside %s" seed what rank n
               p.Stats.population)
            true p.Stats.inside)
        [ ("p50", Stats.median_rank n); ("tail", (Stats.tail (ramp n)).Stats.rank) ])
    [ 1; 2026 ]

(* {1 Passes} *)

let pass ?(counts = [ "n=3" ]) ~setup_s latencies =
  {
    Common.attempted = Array.length latencies;
    failed = 0;
    failures = [];
    setup_s;
    wall_s = Array.fold_left ( +. ) 0.0 latencies;
    latencies;
    labels = Array.make (Array.length latencies) "x";
    populations = [ ("x", Array.length latencies) ];
    counts;
    peak_rss_mb = setup_s;
    gc_alloc_mb_per_op = 0.0;
    gc_major_per_op = 0.0;
    layers = [];
  }

let test_combine () =
  let c =
    Common.combine
      [
        pass ~setup_s:3.0 [| 1.0; 5.0; 3.0 |];
        pass ~setup_s:1.0 [| 2.0; 4.0; 6.0 |];
        pass ~setup_s:2.0 [| 3.0; 6.0; 2.0 |];
      ]
  in
  Alcotest.(check (array (float 0.0))) "each op's fastest pass" [| 1.0; 4.0; 2.0 |]
    c.Common.latencies;
  Alcotest.(check (float 0.0)) "op time sums the minima" 7.0 c.Common.wall_s;
  Alcotest.(check (float 0.0)) "fastest pass's set-up" 1.0 c.Common.setup_s;
  Alcotest.(check (float 0.0)) "highest peak" 3.0 c.Common.peak_rss_mb;
  check_int "every pass's ops attempted" 9 c.Common.attempted;
  check_int "agreeing passes fail nothing" 0 c.Common.failed;
  let c =
    Common.combine
      [ pass ~setup_s:1.0 [| 1.0 |]; pass ~counts:[ "n=4" ] ~setup_s:1.0 [| 1.0 |] ]
  in
  check_int "a pass with other counts fails the run" 1 c.Common.failed

(* {1 Self-check: a seed repeats its counts} *)

let counts_of (o : Common.outcome) = (o.Common.counts, o.Common.populations, o.Common.failed)

let test_repeat_design () =
  let run () = Design_sweep.run ~traced:false ~seed:11 ~ops:8 () in
  let a = run () and b = run () in
  check_bool "design-sweep counts repeat" true (counts_of a = counts_of b);
  check_int "design-sweep ops pass" 0 a.Common.failed;
  Alcotest.(check (array string)) "populations follow model size"
    (Array.map Design_sweep.expected_population (Gen.design_jobs ~seed:11 ~n:8))
    a.Common.labels

let test_repeat_serve () =
  let run () =
    Serve_day.run ~traced:false ~seed:11 ~ops:4 ~checkpoint:"selfcheck.ckpt" ()
  in
  let a = run () and b = run () in
  check_bool "serve-day counts repeat" true (counts_of a = counts_of b);
  check_int "serve-day ops pass" 0 a.Common.failed

let test_repeat_fleet () =
  let run () = Fleet_day.run ~traced:false ~seed:11 ~ops:2 () in
  let a = run () and b = run () in
  check_bool "fleet-day counts repeat" true (counts_of a = counts_of b);
  check_int "fleet-day ops pass" 0 a.Common.failed

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "design jobs" `Quick test_design_jobs;
          Alcotest.test_case "serve inputs" `Quick test_serve_inputs;
          Alcotest.test_case "fleet plan" `Quick test_fleet_plan;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "population rule" `Quick test_place;
          Alcotest.test_case "design-sweep placement" `Quick test_design_placement;
          Alcotest.test_case "combining passes" `Quick test_combine;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "design-sweep" `Slow test_repeat_design;
          Alcotest.test_case "serve-day" `Slow test_repeat_serve;
          Alcotest.test_case "fleet-day" `Slow test_repeat_fleet;
        ] );
    ]
