(* Dpm_cache: structural fingerprints, the LRU, warm starts, and the
   cached/warm-started Optimize layer.  Everything here runs against a
   scoped cache (Solve_cache.with_capacity) so tests neither see nor
   leave global cache state. *)

open Dpm_core
module Model = Dpm_ctmdp.Model
module Policy = Dpm_ctmdp.Policy
module Pi = Dpm_ctmdp.Policy_iteration
module Fingerprint = Dpm_cache.Fingerprint
module Lru = Dpm_cache.Lru
module Warm = Dpm_cache.Warm
module Solve_cache = Dpm_cache.Solve_cache

(* A small hand-built model with room for permutation: 3 states, two
   choices each, multi-entry rate lists. *)
let base_choices i =
  let open Model in
  match i with
  | 0 ->
      [
        { action = 0; rates = [ (1, 0.5); (2, 0.25) ]; cost = 1.0 };
        { action = 1; rates = [ (2, 2.0) ]; cost = 0.5 };
      ]
  | 1 ->
      [
        { action = 0; rates = [ (0, 1.0); (2, 0.75) ]; cost = 2.0 };
        { action = 1; rates = [ (0, 0.25) ]; cost = 0.25 };
      ]
  | _ ->
      [
        { action = 0; rates = [ (0, 3.0) ]; cost = 0.0 };
        { action = 1; rates = [ (1, 1.5); (0, 0.5) ]; cost = 4.0 };
      ]

let base_model () = Model.create ~num_states:3 base_choices

(* The same decision process with every list order scrambled: choices
   reversed, rate lists reversed, one rate split into two summands
   that add back exactly, plus an explicit zero rate. *)
let permuted_model () =
  let open Model in
  let permute i =
    base_choices i
    |> List.rev_map (fun c ->
           let rates =
             match c.rates with
             | [ (j, r) ] when i = 0 && c.action = 1 ->
                 (* 2.0 = 1.25 + 0.75 exactly in binary *)
                 [ (j, 0.75); (j, r -. 0.75) ]
             | rates -> List.rev rates
           in
           { c with rates = rates @ [ ((i + 1) mod 3, 0.0) ] })
  in
  Model.create ~num_states:3 permute

let fingerprint_permutation () =
  let a = base_model () and b = permuted_model () in
  Alcotest.(check string)
    "canonical encodings equal" (Fingerprint.model a) (Fingerprint.model b);
  Alcotest.(check int64)
    "hashes equal" (Fingerprint.model_hash a) (Fingerprint.model_hash b);
  Alcotest.(check string)
    "full keys equal" (Fingerprint.key a) (Fingerprint.key b)

let fingerprint_perturbation () =
  let a = base_model () in
  let perturb_cost i =
    Model.create ~num_states:3 (fun s ->
        base_choices s
        |> List.map (fun (c : Model.choice) ->
               if s = i then { c with Model.cost = Float.succ c.Model.cost }
               else c))
  in
  let perturb_rate () =
    Model.create ~num_states:3 (fun s ->
        base_choices s
        |> List.map (fun (c : Model.choice) ->
               {
                 c with
                 Model.rates =
                   List.map (fun (j, r) -> (j, Float.succ r)) c.Model.rates;
               }))
  in
  let relabel () =
    Model.create ~num_states:3 (fun s ->
        base_choices s
        |> List.map (fun (c : Model.choice) ->
               { c with Model.action = c.Model.action + 10 }))
  in
  let h = Fingerprint.model_hash a in
  List.iteri
    (fun k m ->
      if Fingerprint.model_hash m = h then
        Alcotest.failf "perturbation %d did not change the hash" k)
    [ perturb_cost 1; perturb_rate (); relabel () ];
  (* Same model under a different solver configuration: same model
     hash, different cache key. *)
  let config =
    { Fingerprint.default_config with Fingerprint.ref_state = 1 }
  in
  if Fingerprint.key ~config a = Fingerprint.key a then
    Alcotest.fail "solver config is not part of the key"

let lru_eviction_order () =
  let c = Lru.create ~capacity:3 in
  ignore (Lru.add c "a" 1);
  ignore (Lru.add c "b" 2);
  ignore (Lru.add c "c" 3);
  (* Refresh "a" so "b" is now least recently used. *)
  Alcotest.(check (option int)) "a hits" (Some 1) (Lru.find c "a");
  let evicted = Lru.add c "d" 4 in
  Alcotest.(check bool) "adding d evicts" true evicted;
  Alcotest.(check (option int)) "b was evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c survives" (Some 3) (Lru.find c "c");
  Alcotest.(check (option int)) "d present" (Some 4) (Lru.find c "d");
  let s = Lru.stats c in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "size at capacity" 3 s.Lru.size

let lru_counters () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Lru.find c "x");
  ignore (Lru.add c "x" 1);
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find c "x");
  Alcotest.(check (option int)) "second miss" None (Lru.find c "y");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Lru.misses;
  (* Capacity 0: never stores, never evicts. *)
  let z = Lru.create ~capacity:0 in
  Alcotest.(check bool) "capacity-0 add is a no-op" false (Lru.add z "x" 1);
  Alcotest.(check (option int)) "capacity-0 always misses" None (Lru.find z "x");
  Test_util.check_raises_invalid "negative capacity" (fun () ->
      Lru.create ~capacity:(-1))

(* The memoized front door on [find]/[store]: look up, else solve and
   store under the same key. *)
let cached_solve m =
  let key = Fingerprint.key m in
  match Solve_cache.find ~key m with
  | Some (result, _) -> result
  | None -> Solve_cache.store ~key m (Pi.solve m)

let solve_cache_roundtrip () =
  Solve_cache.with_capacity 8 @@ fun () ->
  let m = base_model () in
  let first = cached_solve m in
  let second = cached_solve m in
  Alcotest.(check bool)
    "same policy" true
    (Policy.equal first.Pi.policy second.Pi.policy);
  Alcotest.(check (float 0.0)) "gain bit-identical" first.Pi.gain second.Pi.gain;
  Alcotest.(check int) "iterations preserved" first.Pi.iterations
    second.Pi.iterations;
  let s = Solve_cache.stats () in
  Alcotest.(check int) "one miss" 1 s.Lru.misses;
  Alcotest.(check int) "one hit" 1 s.Lru.hits;
  (* A permuted-but-equal model must hit, and the returned policy must
     be valid for (rebuilt against) the permuted instance. *)
  let p = permuted_model () in
  (match Solve_cache.find ~key:(Fingerprint.key p) p with
  | None -> Alcotest.fail "permuted model missed the cache"
  | Some (r, _) ->
      Alcotest.(check bool)
        "rebuilt policy selects the same actions" true
        (Policy.actions p r.Pi.policy = Policy.actions m first.Pi.policy));
  (* Mutating the returned bias must not corrupt the cached entry. *)
  let r1 = cached_solve m in
  r1.Pi.bias.(0) <- 1e9;
  let r2 = cached_solve m in
  if r2.Pi.bias.(0) = 1e9 then Alcotest.fail "cached bias was aliased"

let fnv_vectors () =
  (* The published FNV-1a 64 test vectors. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check int64) (Printf.sprintf "hash64 %S" input) expected
        (Fingerprint.hash64 input))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ];
  let m = base_model () in
  List.iter
    (fun config ->
      Alcotest.(check int64) "digest of a key is the model hash"
        (Fingerprint.model_hash m)
        (Fingerprint.digest_of_key (Fingerprint.key ~config m)))
    [
      Fingerprint.default_config;
      { Fingerprint.ref_state = 2; max_iter = 7 };
    ]

(* Every float of a metrics record as its IEEE-754 bits, so equality
   below is bitwise. *)
let metric_bits (m : Analytic.metrics) =
  let b = Int64.bits_of_float in
  ( List.map b
      Analytic.
        [
          m.power;
          m.avg_waiting_requests;
          m.throughput;
          m.loss_rate;
          m.loss_probability;
          m.avg_waiting_time;
          m.avg_waiting_time_paper;
        ],
    Array.map b m.Analytic.mode_residency,
    Array.map b m.Analytic.state_probabilities )

let origin (s : Optimize.solution) =
  s.Optimize.provenance.Dpm_trace.Provenance.origin

let golden_weights = [ 0.1; 1.0; 5.0; 20.0; 100.0 ]

let hit_metrics_equal_cold () =
  Solve_cache.with_capacity 16 @@ fun () ->
  List.iter
    (fun (label, sys, weights) ->
      List.iter
        (fun weight ->
          let cold = Optimize.solve ~weight sys in
          let hit = Optimize.solve ~weight sys in
          if origin cold = Dpm_trace.Provenance.Cache_hit then
            Alcotest.failf "%s w=%g: first solve was a hit" label weight;
          if origin hit <> Dpm_trace.Provenance.Cache_hit then
            Alcotest.failf "%s w=%g: repeat solve missed" label weight;
          if metric_bits hit.Optimize.metrics <> metric_bits cold.Optimize.metrics
          then Alcotest.failf "%s w=%g: hit metrics differ from cold" label weight)
        weights)
    [
      ("paper", Paper_instance.system (), golden_weights);
      (* Policy iteration does not converge at Q=40, w=0.1 (it exhausts
         its 1000-iteration budget), so that point has no hit to check. *)
      ("Q=40", Test_util.paper_at_capacity 40, List.tl golden_weights);
    ]

let hit_distribution_is_private () =
  Solve_cache.with_capacity 4 @@ fun () ->
  let sys = Paper_instance.system () in
  let cold = Optimize.solve ~weight:1.0 sys in
  let expected = metric_bits cold.Optimize.metrics in
  (* Neither the cold caller's vector nor a hit's is the stored one. *)
  cold.Optimize.metrics.Analytic.state_probabilities.(0) <- 1e9;
  let first = Optimize.solve ~weight:1.0 sys in
  first.Optimize.metrics.Analytic.state_probabilities.(1) <- 1e9;
  let second = Optimize.solve ~weight:1.0 sys in
  if metric_bits second.Optimize.metrics <> expected then
    Alcotest.fail "a returned state_probabilities aliased the cache entry"

let scenario_entry_serves_optimize () =
  let sys = Paper_instance.system () in
  let cold =
    Solve_cache.with_capacity 0 (fun () -> Optimize.solve ~weight:1.0 sys)
  in
  Solve_cache.with_capacity 8 @@ fun () ->
  let b =
    Dpm_scenario.Batching.create ~sys ~max_batch:1
      ~service_rate:(fun _ -> Paper_instance.service_rate)
      ()
  in
  (match
     Dpm_scenario.Solve.solve (Dpm_scenario.Batching.to_ctmdp b ~weight:1.0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Dpm_robust.Error.to_string e));
  let hit = Optimize.solve ~weight:1.0 sys in
  if origin hit <> Dpm_trace.Provenance.Cache_hit then
    Alcotest.fail "the paper system missed the batch-1 entry";
  if metric_bits hit.Optimize.metrics <> metric_bits cold.Optimize.metrics then
    Alcotest.fail "metrics off a distribution-free entry differ from cold"

let hit_provenance_digest () =
  Solve_cache.with_capacity 8 @@ fun () ->
  let sys = Paper_instance.system () in
  List.iter
    (fun weight ->
      let expected =
        Fingerprint.model_hash (Sys_model.to_ctmdp sys ~weight)
      in
      let cold = Optimize.solve ~weight sys in
      let hit = Optimize.solve ~weight sys in
      List.iter
        (fun (path, (s : Optimize.solution)) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s fingerprint at w=%g" path weight)
            expected s.Optimize.provenance.Dpm_trace.Provenance.fingerprint)
        [ ("cold", cold); ("hit", hit) ])
    [ 0.1; 20.0 ]

let waves_schedule () =
  Alcotest.(check int) "n=0 empty" 0 (List.length (Warm.waves 0));
  (match Warm.waves 1 with
  | [ [| (0, None) |] ] -> ()
  | _ -> Alcotest.fail "n=1 schedule");
  List.iter
    (fun n ->
      let waves = Warm.waves n in
      let solved = Array.make n false in
      List.iter
        (fun wave ->
          Array.iter
            (fun (k, src) ->
              if k < 0 || k >= n then Alcotest.failf "point %d out of range" k;
              if solved.(k) then Alcotest.failf "point %d scheduled twice" k;
              (match src with
              | None -> ()
              | Some j ->
                  if not solved.(j) then
                    Alcotest.failf "point %d seeded from unsolved %d" k j);
              ())
            wave;
          (* Seeds resolve against previous waves only; mark after. *)
          Array.iter (fun (k, _) -> solved.(k) <- true) wave)
        waves;
      Array.iteri
        (fun k s -> if not s then Alcotest.failf "point %d never scheduled" k)
        solved;
      (* Pure function of n. *)
      if Warm.waves n <> waves then Alcotest.fail "schedule not deterministic")
    [ 2; 3; 5; 11; 16 ]

let warm_init_validation () =
  let m = base_model () in
  Alcotest.(check bool)
    "wrong length falls back" true
    (Warm.init_of_actions m [| 0; 1 |] = None);
  Alcotest.(check bool)
    "unknown label falls back" true
    (Warm.init_of_actions m [| 0; 7; 1 |] = None);
  match Warm.init_of_actions m [| 1; 0; 1 |] with
  | None -> Alcotest.fail "valid table rejected"
  | Some p ->
      Alcotest.(check bool)
        "labels resolved" true
        (Policy.actions m p = [| 1; 0; 1 |])

let weights_11 =
  List.init 11 (fun k -> 0.1 *. ((500.0 /. 0.1) ** (float_of_int k /. 10.0)))

let check_warm_equals_cold ?(weights = weights_11) sys =
  Solve_cache.with_capacity 0 @@ fun () ->
  let cold = Optimize.sweep ~warm:false sys ~weights in
  let warm = Optimize.sweep sys ~weights in
  List.iter2
    (fun (c : Optimize.solution) (w : Optimize.solution) ->
      if c.Optimize.actions <> w.Optimize.actions then
        Alcotest.failf "policies differ at weight %g" c.Optimize.weight;
      Test_util.check_close ~tol:1e-12
        (Printf.sprintf "gain at weight %g" c.Optimize.weight)
        c.Optimize.gain w.Optimize.gain)
    cold warm

let warm_equals_cold_paper () =
  check_warm_equals_cold (Paper_instance.system ())

let warm_equals_cold_random =
  Test_util.qtest ~count:50 "warm sweep equals cold sweep on random systems"
    Test_random_systems.sys_gen
    (fun sys ->
      check_warm_equals_cold ~weights:[ 0.2; 0.7; 2.0; 8.0; 50.0 ] sys;
      true)

let domain_safety () =
  Solve_cache.with_capacity 32 @@ fun () ->
  let sys = Paper_instance.system () in
  let weights = [ 0.2; 1.0; 5.0; 20.0; 100.0 ] in
  (* Modulo provenance: the repeat sweep is served from the cache, so
     its wall clock and origin differ by design. *)
  let sweep d =
    List.map Test_util.strip_provenance (Optimize.sweep ~domains:d sys ~weights)
  in
  let first = sweep 4 in
  let second = sweep 4 in
  if first <> second then
    Alcotest.fail "4-domain cached sweep is not reproducible";
  let sequential = sweep 1 in
  if first <> sequential then
    Alcotest.fail "4-domain sweep differs from sequential";
  let s = Solve_cache.stats () in
  if s.Lru.hits < List.length weights then
    Alcotest.failf "expected the repeat sweeps to hit, got %d hits" s.Lru.hits

let sweep_hit_ratio () =
  (* The CLI cache smoke's contract: a 5-point sweep with one duplicated
     weight has a nonzero hit ratio. *)
  Solve_cache.with_capacity 16 @@ fun () ->
  let sys = Paper_instance.system () in
  let _ = Optimize.sweep sys ~weights:[ 0.2; 1.0; 1.0; 5.0; 20.0 ] in
  if not (Solve_cache.hit_ratio () > 0.0) then
    Alcotest.failf "expected a nonzero hit ratio, got %g"
      (Solve_cache.hit_ratio ())

let value_iteration_warm_start () =
  (* The paper SP with the big-M self-switch rate lowered to 1e3: VI
     contracts at O(real rates / M) per sweep, so the default 1e6
     would not converge in any reasonable iteration budget. *)
  let sys =
    Sys_model.create ~self_switch_rate:1e3
      ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:Paper_instance.queue_capacity
      ~arrival_rate:Paper_instance.arrival_rate ()
  in
  let m = Sys_model.to_ctmdp sys ~weight:1.0 in
  let cold = Dpm_ctmdp.Value_iteration.solve ~tol:1e-10 ~max_iter:200_000 m in
  let warm =
    Dpm_ctmdp.Value_iteration.solve ~tol:1e-10 ~max_iter:200_000
      ~init_values:cold.Dpm_ctmdp.Value_iteration.values m
  in
  Alcotest.(check bool)
    "warm VI converged" true warm.Dpm_ctmdp.Value_iteration.converged;
  Alcotest.(check bool)
    "warm VI is faster" true
    (warm.Dpm_ctmdp.Value_iteration.iterations
    <= cold.Dpm_ctmdp.Value_iteration.iterations);
  Alcotest.(check bool)
    "same policy" true
    (Policy.equal warm.Dpm_ctmdp.Value_iteration.policy
       cold.Dpm_ctmdp.Value_iteration.policy);
  Test_util.check_raises_invalid "dimension mismatch" (fun () ->
      Dpm_ctmdp.Value_iteration.solve
        ~init_values:(Dpm_linalg.Vec.create 2)
        m)

let suite =
  [
    Alcotest.test_case "fingerprint: permuted models collide" `Quick
      fingerprint_permutation;
    Alcotest.test_case "fingerprint: perturbed models differ" `Quick
      fingerprint_perturbation;
    Alcotest.test_case "lru: eviction follows recency" `Quick
      lru_eviction_order;
    Alcotest.test_case "lru: hit/miss counters" `Quick lru_counters;
    Alcotest.test_case "solve cache: roundtrip, permutation hit, isolation"
      `Quick solve_cache_roundtrip;
    Alcotest.test_case "fingerprint: FNV-1a vectors and key digest" `Quick
      fnv_vectors;
    Alcotest.test_case "optimize: hit metrics bit-equal to cold" `Quick
      hit_metrics_equal_cold;
    Alcotest.test_case "optimize: hit distribution is a private copy" `Quick
      hit_distribution_is_private;
    Alcotest.test_case "optimize: scenario-stored entry serves the paper system"
      `Quick scenario_entry_serves_optimize;
    Alcotest.test_case "optimize: hit provenance carries the model digest"
      `Quick hit_provenance_digest;
    Alcotest.test_case "warm: wave schedule is a valid function of n" `Quick
      waves_schedule;
    Alcotest.test_case "warm: action-table validation" `Quick
      warm_init_validation;
    Alcotest.test_case "warm sweep equals cold sweep (paper instance)" `Quick
      warm_equals_cold_paper;
    warm_equals_cold_random;
    Alcotest.test_case "cached sweep is domain-safe and reproducible" `Quick
      domain_safety;
    Alcotest.test_case "duplicated weight yields a nonzero hit ratio" `Quick
      sweep_hit_ratio;
    Alcotest.test_case "value iteration warm start" `Quick
      value_iteration_warm_start;
  ]
