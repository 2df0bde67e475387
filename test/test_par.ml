(* Dpm_par pool semantics and the parallel paths built on it:
   determinism across domain counts, sparse-vs-dense policy
   evaluation agreement, and pool edge cases. *)

open Dpm_core
open Dpm_sim

let t = Alcotest.test_case

(* --- pool combinators ---------------------------------------------- *)

let map_empty () =
  Alcotest.(check (array int)) "empty array" [||]
    (Dpm_par.parallel_map ~domains:4 (fun x -> x + 1) [||]);
  Alcotest.(check (list int)) "empty list" []
    (Dpm_par.parallel_map_list ~domains:4 (fun x -> x + 1) [])

let map_orders_results () =
  let input = Array.init 257 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) input in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "squares, %d domains" d)
        expected
        (Dpm_par.parallel_map ~domains:d (fun i -> (i * i) + 1) input))
    [ 1; 2; 3; 8 ]

let size_one_pool_is_sequential () =
  (* domains:1 must not touch the pool at all: results computed on the
     calling domain, in order. *)
  let order = ref [] in
  Dpm_par.parallel_for ~domains:1 5 (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "in-order execution" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let exception_propagates () =
  let boom i = if i >= 100 then failwith (string_of_int i) else i in
  List.iter
    (fun d ->
      match
        Dpm_par.parallel_map ~domains:d boom (Array.init 300 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          (* The lowest failing index wins, regardless of which domain
             hit its failure first. *)
          Alcotest.(check string)
            (Printf.sprintf "lowest index, %d domains" d)
            "100" msg)
    [ 1; 2; 4 ]

let reduce_is_chunk_deterministic () =
  (* Float addition is not associative, so this only passes because
     the chunk layout (and thus the combine tree) is a function of n
     alone, never of the domain count. *)
  let n = 1023 in
  let map i = 1.0 /. float_of_int (i + 1) in
  let sum d =
    Dpm_par.parallel_reduce ~domains:d ~n ~map ~combine:( +. ) ~init:0.0 ()
  in
  let reference = sum 1 in
  List.iter
    (fun d ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "bitwise-equal sum, %d domains" d)
        reference (sum d))
    [ 2; 3; 4; 7 ]

let nested_calls_degrade () =
  (* A parallel call from inside a worker must not deadlock; it runs
     sequentially on that worker. *)
  let outer =
    Dpm_par.parallel_map ~domains:4
      (fun i ->
        Dpm_par.parallel_reduce ~domains:4 ~n:10
          ~map:(fun j -> i + j)
          ~combine:( + ) ~init:0 ())
      (Array.init 8 (fun i -> i))
  in
  Alcotest.(check (array int)) "nested results"
    (Array.init 8 (fun i -> (10 * i) + 45))
    outer

(* --- seed streams --------------------------------------------------- *)

let seed_stream_properties () =
  let s = Dpm_prob.Rng.seed_stream ~base:42L 8 in
  Alcotest.(check int) "length" 8 (List.length s);
  Alcotest.(check bool) "deterministic" true
    (s = Dpm_prob.Rng.seed_stream ~base:42L 8);
  Alcotest.(check bool) "prefix property" true
    (Dpm_prob.Rng.seed_stream ~base:42L 3
    = (s |> List.filteri (fun i _ -> i < 3)));
  Alcotest.(check int) "all distinct" 8
    (List.length (List.sort_uniq compare s));
  Alcotest.(check bool) "base matters" true
    (s <> Dpm_prob.Rng.seed_stream ~base:43L 8);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.seed_stream: negative count") (fun () ->
      ignore (Dpm_prob.Rng.seed_stream ~base:1L (-1)))

(* --- replicate determinism across domain counts ---------------------- *)

let replicate ~domains ?seeds ?n ?seed sys =
  Power_sim.replicate ?seeds ?n ?seed ~domains ~sys
    ~workload:(fun () -> Workload.poisson ~rate:(Sys_model.arrival_rate sys))
    ~controller:(fun () -> Controller.greedy sys)
    ~stop:(Power_sim.Requests 2_000) ()

let replicate_deterministic () =
  let sys = Paper_instance.system () in
  let reference = replicate ~domains:1 ~n:6 ~seed:5L sys in
  Alcotest.(check int) "n replications" 6 (List.length reference);
  List.iter
    (fun d ->
      let rs = replicate ~domains:d ~n:6 ~seed:5L sys in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical results, %d domains" d)
        true (rs = reference);
      let s = Summary.of_results rs and s0 = Summary.of_results reference in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical summary, %d domains" d)
        true (s = s0))
    [ 2; 4 ]

let replicate_seed_handling () =
  let sys = Paper_instance.system () in
  (* Default is five splitmix-derived seeds from the base seed. *)
  let default = replicate ~domains:1 sys in
  let explicit =
    replicate ~domains:1 ~seeds:(Dpm_prob.Rng.seed_stream ~base:1L 5) sys
  in
  Alcotest.(check bool) "default = splitmix stream of seed 1" true
    (default = explicit);
  Alcotest.check_raises "empty seed list"
    (Invalid_argument "Power_sim.replicate: empty seed list") (fun () ->
      ignore (replicate ~domains:1 ~seeds:[] sys));
  Alcotest.check_raises "contradictory n"
    (Invalid_argument
       "Power_sim.replicate: ~n:3 contradicts the 2 explicit seeds") (fun () ->
      ignore (replicate ~domains:1 ~seeds:[ 1L; 2L ] ~n:3 sys))

(* --- sweeps are domain-count invariant ------------------------------- *)

let sweep_deterministic () =
  let sys = Paper_instance.system () in
  let weights = [ 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ] in
  (* Solutions are compared modulo provenance: wall clock and cache
     origin legitimately vary with the domain count. *)
  let sweep d =
    List.map Test_util.strip_provenance (Optimize.sweep ~domains:d sys ~weights)
  in
  let reference = sweep 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "identical solutions, %d domains" d)
        true
        (sweep d = reference))
    [ 2; 4 ];
  let sol = List.nth reference 2 in
  let rates = List.init 8 (fun k -> 0.1 +. (0.02 *. float_of_int k)) in
  let sweep d =
    Sensitivity.rate_sweep ~domains:d sys ~actions:sol.Optimize.actions
      ~weight:1.0 ~rates
  in
  let r1 = sweep 1 in
  Alcotest.(check bool) "rate sweep identical under 3 domains" true
    (sweep 3 = r1)

(* --- sparse vs dense policy evaluation ------------------------------- *)

let eval_close label (a : Dpm_ctmdp.Policy_iteration.evaluation)
    (b : Dpm_ctmdp.Policy_iteration.evaluation) =
  Alcotest.(check bool)
    (label ^ ": gain within 1e-6")
    true
    (Float.abs (a.Dpm_ctmdp.Policy_iteration.gain
                -. b.Dpm_ctmdp.Policy_iteration.gain)
    < 1e-6);
  Alcotest.(check bool)
    (label ^ ": bias within 1e-6")
    true
    (Dpm_linalg.Vec.approx_equal ~tol:1e-6 a.Dpm_ctmdp.Policy_iteration.bias
       b.Dpm_ctmdp.Policy_iteration.bias)

let sparse_matches_dense () =
  let sys = Paper_instance.system () in
  let m = Sys_model.to_ctmdp sys ~weight:1.0 in
  let policies =
    [
      ("first-choice", Dpm_ctmdp.Policy.uniform_first m);
      ( "greedy",
        Policies.to_ctmdp_policy sys m (Policies.greedy sys) );
      ( "n-policy",
        Policies.to_ctmdp_policy sys m (Policies.n_policy sys ~n:2) );
      ("optimal", (Dpm_ctmdp.Policy_iteration.solve m).Dpm_ctmdp.Policy_iteration.policy);
    ]
  in
  List.iter
    (fun (name, p) ->
      eval_close name
        (Dpm_ctmdp.Policy_iteration.evaluate_sparse m p)
        (Dpm_ctmdp.Policy_iteration.evaluate_robust m p))
    policies

(* Policy iteration driven by dense LU alone: the reference the routed
   solver must reproduce. *)
let dense_reference m =
  let rec loop policy =
    let e = Dpm_ctmdp.Policy_iteration.evaluate_robust m policy in
    let next, changed =
      Dpm_ctmdp.Policy_iteration.improve m e ~incumbent:policy
    in
    if changed = 0 then (policy, e.Dpm_ctmdp.Policy_iteration.gain)
    else loop next
  in
  loop (Dpm_ctmdp.Policy.uniform_first m)

let solve_paths_agree () =
  (* The full optimization must land on the same policy and gain as a
     dense-LU-only run — on the paper instance (dense route) and at
     Q=50, past the 192-state switch, where evaluations run the
     iterative route. *)
  List.iter
    (fun q ->
      let m = Sys_model.to_ctmdp (Test_util.paper_at_capacity q) ~weight:1.0 in
      let policy, gain = dense_reference m in
      let routed, reg =
        Test_util.with_registry (fun () -> Dpm_ctmdp.Policy_iteration.solve m)
      in
      Test_util.check_close ~tol:1e-6
        (Printf.sprintf "gain agrees (Q=%d)" q)
        gain routed.Dpm_ctmdp.Policy_iteration.gain;
      Alcotest.(check bool)
        (Printf.sprintf "policy agrees (Q=%d)" q)
        true
        (Dpm_ctmdp.Policy.actions m policy
        = Dpm_ctmdp.Policy.actions m routed.Dpm_ctmdp.Policy_iteration.policy);
      Alcotest.(check bool)
        (Printf.sprintf "iterative route used iff Q=50 (Q=%d)" q)
        (q = 50)
        (Test_util.counter reg "policy_iteration.sparse_evals" > 0))
    [ 5; 50 ]

let iterative_domains_bit_identical () =
  (* Solves on the iterative route (paper Q=50, 203 states) fanned out
     over a domain pool must be bit-identical to the sequential run —
     the Dpm_par determinism contract.  Cache capacity 0 so every
     domain count really solves. *)
  let sys = Test_util.paper_at_capacity 50 in
  let weights = [| 0.1; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0 |] in
  let run d =
    Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
    Array.map Test_util.strip_provenance
      (Dpm_par.parallel_map ~domains:d
         (fun weight -> Optimize.solve ~weight sys)
         weights)
  in
  let reference = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical iterative-route solutions, %d domains" d)
        true
        (run d = reference))
    [ 2; 4 ]

let suite =
  [
    t "parallel_map of empty input" `Quick map_empty;
    t "parallel_map preserves order at any domain count" `Quick
      map_orders_results;
    t "domains=1 runs sequentially in order" `Quick size_one_pool_is_sequential;
    t "task exception propagates (lowest index)" `Quick exception_propagates;
    t "parallel_reduce is bitwise domain-count invariant" `Quick
      reduce_is_chunk_deterministic;
    t "nested parallel calls degrade gracefully" `Quick nested_calls_degrade;
    t "seed_stream is a deterministic prefix-stable stream" `Quick
      seed_stream_properties;
    t "replicate: identical results under 1/2/4 domains" `Quick
      replicate_deterministic;
    t "replicate: ?n / ?seeds semantics" `Quick replicate_seed_handling;
    t "optimize and rate sweeps are domain-count invariant" `Quick
      sweep_deterministic;
    t "sparse evaluation matches dense LU within 1e-6" `Quick
      sparse_matches_dense;
    t "solve agrees across evaluation routes" `Quick solve_paths_agree;
    t "iterative-route solves: identical results under 1/2/4 domains" `Quick
      iterative_domains_bit_identical;
  ]
