(* The scenario layer's trust anchors:

   - degeneracy: an Erlang-1 phase expansion and a batch-1 batching
     model must be *bit-identical* to the plain paper system — same
     fingerprint, shared cache entries, and the golden pins must
     reproduce through them;
   - independence: the K = 2 polling optimum is cross-checked against
     a closed-loop chain rebuilt in this file from the polling
     physics alone (GTH stationary gain — a numerical path disjoint
     from policy iteration's bias equations);
   - determinism: scenario sweeps are bit-identical at 1, 2 and 4
     domains. *)

open Dpm_core
open Dpm_scenario

let fingerprint = Dpm_cache.Fingerprint.model
let bits = Int64.bits_of_float

let ok_exn site = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" site (Dpm_robust.Error.to_string e)

let validates_clean label m =
  Alcotest.(check (list string))
    (label ^ " validates clean") []
    (List.map Dpm_robust.Diagnostic.to_string
       (Dpm_robust.Diagnostic.errors (Dpm_robust.Validate.model m)))

(* --- Phase_type ------------------------------------------------------ *)

let phase_type_fit () =
  let check_fit mean scv =
    let d = Phase_type.fit ~mean ~scv in
    Test_util.check_close ~tol:1e-12
      (Printf.sprintf "fitted mean at scv=%g" scv)
      mean (Phase_type.mean d);
    d
  in
  (match check_fit 1.5 1.0 with
  | Phase_type.Exp _ -> ()
  | d -> Alcotest.failf "scv=1 should fit Exp, got %s" (Phase_type.to_spec d));
  (match check_fit 2.0 0.25 with
  | Phase_type.Erlang (4, _) as d ->
      Test_util.check_close ~tol:1e-12 "erlang scv" 0.25 (Phase_type.scv d)
  | d -> Alcotest.failf "scv=0.25 should fit Erlang-4, got %s" (Phase_type.to_spec d));
  (match check_fit 0.7 3.0 with
  | Phase_type.Hyper2 _ as d ->
      (* The balanced-means H2 matches the second moment exactly. *)
      Test_util.check_close ~tol:1e-9 "hyper2 scv" 3.0 (Phase_type.scv d)
  | d -> Alcotest.failf "scv=3 should fit Hyper2, got %s" (Phase_type.to_spec d));
  (* Erlang-1 *is* Exp — the bit-identity tests below lean on it. *)
  if Phase_type.erlang 1 0.5 <> Phase_type.exp_ 0.5 then
    Alcotest.fail "erlang 1 r should normalize to Exp r"

let phase_type_views () =
  List.iter
    (fun spec ->
      match Phase_type.of_spec spec with
      | Error e -> Alcotest.failf "of_spec %s: %s" spec e
      | Ok d ->
          let total =
            List.fold_left (fun a (_, p) -> a +. p) 0.0 (Phase_type.init d)
          in
          Test_util.check_close ~tol:1e-12
            (Printf.sprintf "init mass of %s" spec)
            1.0 total;
          (* Every phase must make progress: advance or absorb. *)
          for phase = 0 to Phase_type.phases d - 1 do
            let moves = Phase_type.advance d phase <> None in
            let absorbs = Phase_type.completion_rate d phase > 0.0 in
            if not (moves || absorbs) then
              Alcotest.failf "%s phase %d is absorbing" spec phase
          done;
          (match Phase_type.of_spec (Phase_type.to_spec d) with
          | Ok d' when d' = d -> ()
          | Ok d' ->
              Alcotest.failf "spec roundtrip drifted: %s -> %s" spec
                (Phase_type.to_spec d')
          | Error e -> Alcotest.failf "spec roundtrip of %s: %s" spec e))
    [ "exp:0.667"; "erlang:4:2.5"; "hyper2:0.3:2.0:0.5"; "fit:1.5:4.0" ];
  List.iter
    (fun spec ->
      match Phase_type.of_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_spec accepted %S" spec)
    [ ""; "exp:0"; "erlang:0:1"; "hyper2:1.5:1:1"; "fit:1:-2"; "weibull:1" ]

let phase_type_invalid () =
  Test_util.check_raises_invalid "exp 0" (fun () -> Phase_type.exp_ 0.0);
  Test_util.check_raises_invalid "erlang 0" (fun () -> Phase_type.erlang 0 1.0);
  Test_util.check_raises_invalid "hyper2 p=1" (fun () ->
      Phase_type.hyper2 ~p:1.0 ~rate1:1.0 ~rate2:2.0);
  Test_util.check_raises_invalid "fit scv<=0" (fun () ->
      Phase_type.fit ~mean:1.0 ~scv:0.0)

(* --- Phased: Erlang-1 degeneracy and Erlang-k solves ----------------- *)

let paper_phased ?(service = Phase_type.exp_ Paper_instance.service_rate) () =
  Phased.create
    ~sp:(Paper_instance.service_provider ())
    ~queue_capacity:Paper_instance.queue_capacity
    ~arrival_rate:Paper_instance.arrival_rate ~service ()

let prop_erlang1_bit_identity =
  Test_util.qtest ~count:40 "Erlang-1 expansion is bit-identical to the SYS"
    QCheck2.Gen.(
      int_range 1 5 >>= fun queue_capacity ->
      float_range 0.05 1.0 >>= fun arrival_rate ->
      float_range 0.0 20.0 >>= fun weight ->
      return (queue_capacity, arrival_rate, weight))
    (fun (queue_capacity, arrival_rate, weight) ->
      let sp = Paper_instance.service_provider () in
      let mu =
        Service_provider.service_rate sp (List.hd (Service_provider.active_modes sp))
      in
      let sys = Sys_model.create ~sp ~queue_capacity ~arrival_rate () in
      let ph =
        Phased.create ~sp ~queue_capacity ~arrival_rate
          ~service:(Phase_type.erlang 1 mu) ()
      in
      fingerprint (Sys_model.to_ctmdp sys ~weight)
      = fingerprint (Phased.to_ctmdp ph ~weight))

let degenerate_models_share_cache () =
  Dpm_cache.Solve_cache.with_capacity 8 @@ fun () ->
  let sys = Paper_instance.system () in
  (* Populate the cache through the paper's own driver... *)
  let base = Optimize.solve ~weight:1.0 sys in
  (* ...then both degenerate scenario models must hit its entry. *)
  let check_hit name model =
    let s = ok_exn name (Solve.solve model) in
    if s.Solve.provenance.Dpm_trace.Provenance.origin <> Dpm_trace.Provenance.Cache_hit
    then Alcotest.failf "%s did not hit the base system's cache entry" name;
    if s.Solve.actions <> base.Optimize.actions then
      Alcotest.failf "%s: cached policy differs from the base optimum" name;
    Test_util.check_close ~tol:0.0 (name ^ " gain") base.Optimize.gain
      s.Solve.gain
  in
  check_hit "erlang-1 phased" (Phased.to_ctmdp (paper_phased ()) ~weight:1.0);
  let b =
    Batching.create ~sys ~max_batch:1
      ~service_rate:(fun _ -> Paper_instance.service_rate)
      ()
  in
  check_hit "batch-1 batching" (Batching.to_ctmdp b ~weight:1.0)

let erlang_k_and_hyper2_solve () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  List.iter
    (fun (label, scv) ->
      let service = Phase_type.fit ~mean:1.5 ~scv in
      let ph = paper_phased ~service () in
      let m = Phased.to_ctmdp ph ~weight:1.0 in
      Alcotest.(check int)
        (label ^ " state count")
        (23 + ((Phase_type.phases service - 1) * Paper_instance.queue_capacity))
        (Dpm_ctmdp.Model.num_states m);
      validates_clean label m;
      let s = ok_exn label (Solve.solve m) in
      (* Cross-check the optimum's gain against the closed-loop
         stationary distribution — an independent numerical path. *)
      let gain' = Solve.stationary_gain m ~actions:s.Solve.actions in
      Test_util.check_relative ~rel:1e-9 (label ^ " gain vs GTH") s.Solve.gain
        gain')
    [ ("erlang-4 service", 0.25); ("hyper2 service", 4.0) ]

(* --- Polling: the independent K = 2 oracle --------------------------- *)

let polling_powers =
  (* Passed explicitly so the oracle below shares them by construction. *)
  (2.3, 0.95, 0.95, 0.13)

let two_queue ?(loss_penalty = 0.5) ?(lam = (0.25, 0.4)) ?(caps = (2, 2))
    ?(mus = (1.0, 1.4)) ?(chis = (4.0, 6.0)) () =
  let serve_power, idle_power, switch_power, sleep_power = polling_powers in
  let l0, l1 = lam and c0, c1 = caps and m0, m1 = mus and x0, x1 = chis in
  Polling.create ~dispatch_rate:1e6 ~loss_penalty ~serve_power ~idle_power
    ~switch_power ~sleep_power
    [
      Polling.queue ~arrival_rate:l0 ~capacity:c0
        ~service:(Phase_type.exp_ m0) ~switch_over:(Phase_type.exp_ x0) ();
      Polling.queue ~weight:2.0 ~arrival_rate:l1 ~capacity:c1
        ~service:(Phase_type.exp_ m1) ~switch_over:(Phase_type.exp_ x1) ();
    ]

(* The closed-loop chain of an all-exponential polling system, rebuilt
   from its physics (arrivals fill queues, a serving server completes
   at mu, a switching server lands at chi, decisions resolve at the
   big-M rate).  Shares only the state <-> index bijection with the
   library — rates and costs are re-derived here. *)
let oracle_gain p (actions : int array) =
  let qs = Polling.queues p in
  let lam j = qs.(j).Polling.arrival_rate in
  let cap j = qs.(j).Polling.capacity in
  let rate_of label = function
    | Phase_type.Exp r -> r
    | d -> Alcotest.failf "oracle wants exp %s, got %s" label (Phase_type.to_spec d)
  in
  let mu j = rate_of "service" qs.(j).Polling.service in
  let chi j = rate_of "switch-over" qs.(j).Polling.switch_over in
  let big = 1e6 in
  let serve_power, idle_power, switch_power, sleep_power = polling_powers in
  let n_states = Polling.num_states p in
  let rates = ref [] in
  let cost = Array.make n_states 0.0 in
  for s = 0 to n_states - 1 do
    let st = Polling.state_of_index p s in
    let n = st.Polling.queues in
    let add to_state r =
      let s' = Polling.index p to_state in
      if r > 0.0 && s' <> s then rates := (s, s', r) :: !rates
    in
    Array.iteri
      (fun j nj ->
        if nj < cap j then begin
          let n' = Array.copy n in
          n'.(j) <- nj + 1;
          add { st with Polling.queues = n' } (lam j)
        end)
      n;
    let a = actions.(s) in
    let goto () =
      add { st with Polling.server = Polling.Switch (a - 1, 0) } big
    in
    (match st.Polling.server with
    | Polling.Idle j ->
        if a = Polling.action_serve p then
          add { st with Polling.server = Polling.Serve (j, 0) } big
        else if a = Polling.action_sleep p then
          add { st with Polling.server = Polling.Asleep } big
        else if a <> Polling.action_stay then goto ()
    | Polling.Asleep -> if a <> Polling.action_stay then goto ()
    | Polling.Serve (j, _) ->
        if n.(j) >= 1 then begin
          let n' = Array.copy n in
          n'.(j) <- n.(j) - 1;
          add { Polling.server = Polling.Idle j; queues = n' } (mu j)
        end
    | Polling.Switch (j, _) -> add { st with Polling.server = Polling.Idle j } (chi j));
    let power =
      match st.Polling.server with
      | Polling.Idle _ -> idle_power
      | Polling.Serve _ -> serve_power
      | Polling.Switch _ -> switch_power
      | Polling.Asleep -> sleep_power
    in
    let holding = ref 0.0 and loss = ref 0.0 in
    Array.iteri
      (fun j nj ->
        holding := !holding +. (qs.(j).Polling.weight *. float_of_int nj);
        if nj = cap j then loss := !loss +. lam j)
      n;
    cost.(s) <- power +. !holding +. (0.5 (* loss_penalty *) *. !loss)
  done;
  let gen = Dpm_ctmc.Generator.of_rates ~dim:n_states !rates in
  let pi = Dpm_ctmc.Steady_state.solve gen in
  Dpm_ctmc.Steady_state.expected_value pi (fun i -> cost.(i))

let polling_matches_oracle () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let p = two_queue () in
  let m = Polling.to_ctmdp p in
  validates_clean "polling" m;
  let s = ok_exn "polling solve" (Solve.solve m) in
  (* The optimum must actually serve somewhere. *)
  if not (Array.exists (fun a -> a = Polling.action_serve p) s.Solve.actions)
  then Alcotest.fail "optimal polling policy never serves";
  let oracle = oracle_gain p s.Solve.actions in
  Test_util.check_relative ~rel:1e-6 "polling gain vs independent oracle"
    oracle s.Solve.gain;
  (* The library's own closed-loop path must agree with the oracle
     even tighter (same chain, different row construction). *)
  Test_util.check_relative ~rel:1e-9 "stationary_gain vs oracle" oracle
    (Solve.stationary_gain m ~actions:s.Solve.actions)

let polling_index_roundtrip () =
  let p =
    Polling.create
      [
        Polling.queue ~arrival_rate:0.3 ~capacity:2
          ~service:(Phase_type.erlang 3 2.0)
          ~switch_over:(Phase_type.fit ~mean:0.2 ~scv:2.5) ();
        Polling.queue ~arrival_rate:0.2 ~capacity:1 ();
      ]
  in
  for k = 0 to Polling.num_states p - 1 do
    let k' = Polling.index p (Polling.state_of_index p k) in
    if k' <> k then Alcotest.failf "index roundtrip: %d -> %d" k k'
  done;
  Test_util.check_raises_invalid "occupancy out of range" (fun () ->
      Polling.index p { Polling.server = Polling.Asleep; queues = [| 3; 0 |] })

let polling_progress_constraints () =
  let p = two_queue ~caps:(1, 1) () in
  let m = Polling.to_ctmdp p in
  let stay_at st =
    Dpm_ctmdp.Model.find_choice m (Polling.index p st) ~action:Polling.action_stay
  in
  (* Idling on a full local queue and sleeping through all-full are
     withheld; the same server states with slack keep [stay]. *)
  let idle0 n = { Polling.server = Polling.Idle 0; queues = n } in
  let asleep n = { Polling.server = Polling.Asleep; queues = n } in
  if stay_at (idle0 [| 1; 0 |]) <> None then
    Alcotest.fail "idle server may stay on a full local queue";
  if stay_at (idle0 [| 0; 1 |]) = None then
    Alcotest.fail "idle stay wrongly withheld with local slack";
  if stay_at (asleep [| 1; 1 |]) <> None then
    Alcotest.fail "sleeping server may stay with every queue full";
  if stay_at (asleep [| 1; 0 |]) = None then
    Alcotest.fail "asleep stay wrongly withheld with slack"

let prop_polling_throughput_conservation =
  Test_util.qtest ~count:10
    "polling steady state conserves throughput (served = accepted)"
    QCheck2.Gen.(
      float_range 0.05 0.6 >>= fun l0 ->
      float_range 0.05 0.6 >>= fun l1 ->
      int_range 1 2 >>= fun c0 ->
      int_range 1 2 >>= fun c1 ->
      float_range 0.5 2.0 >>= fun m0 ->
      float_range 0.5 2.0 >>= fun m1 ->
      return (l0, l1, c0, c1, m0, m1))
    (fun (l0, l1, c0, c1, m0, m1) ->
      Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
      let p =
        two_queue ~lam:(l0, l1) ~caps:(c0, c1) ~mus:(m0, m1) ()
      in
      let m = Polling.to_ctmdp p in
      let s = ok_exn "conservation solve" (Solve.solve m) in
      let gen, _ = Solve.closed_loop m ~actions:s.Solve.actions in
      let pi = Dpm_ctmc.Steady_state.solve gen in
      let qs = Polling.queues p in
      let served = ref 0.0 and accepted = ref 0.0 in
      Array.iteri
        (fun k pk ->
          let st = Polling.state_of_index p k in
          (match st.Polling.server with
          | Polling.Serve (j, phase) when st.Polling.queues.(j) >= 1 ->
              served :=
                !served
                +. pk
                   *. Phase_type.completion_rate qs.(j).Polling.service phase
          | _ -> ());
          Array.iteri
            (fun j nj ->
              if nj < qs.(j).Polling.capacity then
                accepted := !accepted +. (pk *. qs.(j).Polling.arrival_rate))
            st.Polling.queues)
        pi;
      Float.abs (!served -. !accepted) <= 1e-6 *. (1.0 +. !accepted))

(* The budget a solve ran under is in its provenance, cold or hit. *)
let solve_stamps_deadline () =
  let m = Polling.to_ctmdp (two_queue ()) in
  Dpm_cache.Solve_cache.with_capacity 8 @@ fun () ->
  let deadline s =
    s.Solve.provenance.Dpm_trace.Provenance.deadline_s
  in
  let cold = ok_exn "cold" (Solve.solve ~deadline_s:60.0 m) in
  Alcotest.(check (option (float 0.0))) "cold solve" (Some 60.0) (deadline cold);
  let hit = ok_exn "hit" (Solve.solve ~deadline_s:30.0 m) in
  Alcotest.(check bool)
    "served from the cache" true
    (hit.Solve.provenance.Dpm_trace.Provenance.origin
    = Dpm_trace.Provenance.Cache_hit);
  Alcotest.(check (option (float 0.0))) "cache hit" (Some 30.0) (deadline hit);
  let unbudgeted = ok_exn "no budget" (Solve.solve m) in
  Alcotest.(check (option (float 0.0))) "no budget" None (deadline unbudgeted)

let polling_deadline_guard () =
  let m = Polling.to_ctmdp (two_queue ()) in
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  match Solve.solve ~deadline_s:0.0 m with
  | Error (Dpm_robust.Error.Deadline_exceeded _) -> ()
  | Error e ->
      Alcotest.failf "expected deadline error, got %s"
        (Dpm_robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "a zero deadline should fire on the first tick"

(* --- Batching -------------------------------------------------------- *)

let batch1_reproduces_golden_pins () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let sys = Paper_instance.system () in
  let b =
    Batching.create ~sys ~max_batch:1
      ~service_rate:(fun _ -> Paper_instance.service_rate)
      ()
  in
  List.iter
    (fun (weight, gain, _, _, actions) ->
      let m = Batching.to_ctmdp b ~weight in
      if fingerprint m <> fingerprint (Sys_model.to_ctmdp sys ~weight) then
        Alcotest.failf "batch-1 fingerprint drifted at w=%g" weight;
      let s = ok_exn "batch-1 solve" (Solve.solve m) in
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "batch-1 gain at w=%g" weight)
        gain s.Solve.gain;
      if s.Solve.actions <> actions then
        Alcotest.failf "batch-1 policy drifted at w=%g" weight)
    Test_golden.pins

let batching_monotone_in_cap () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let sys = Paper_instance.system () in
  (* A constant per-batch completion rate: a bigger batch serves more
     per completion, so widening the cap can only help. *)
  let gain_at max_batch =
    let b =
      Batching.create ~sys ~max_batch
        ~service_rate:(fun _ -> Paper_instance.service_rate)
        ()
    in
    (ok_exn "monotone solve" (Solve.solve (Batching.to_ctmdp b ~weight:1.0)))
      .Solve.gain
  in
  let g1 = gain_at 1 and g2 = gain_at 2 and g3 = gain_at 3 in
  if not (g2 <= g1 +. 1e-9 && g3 <= g2 +. 1e-9) then
    Alcotest.failf "gain not monotone in batch cap: %.12g %.12g %.12g" g1 g2 g3;
  if not (g3 < g1 -. 1e-6) then
    Alcotest.failf "batching never helped: %.12g vs %.12g" g1 g3

let batching_energy_disables_batches () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let sys = Paper_instance.system () in
  let base = Optimize.solve ~weight:1.0 sys in
  let b =
    Batching.create ~sys ~max_batch:4
      ~service_rate:(fun _ -> Paper_instance.service_rate)
      ~batch_energy:(fun bsz -> if bsz > 1 then 1e6 else 0.0)
      ()
  in
  let s = ok_exn "energy solve" (Solve.solve (Batching.to_ctmdp b ~weight:1.0)) in
  (* Prohibitive per-batch energy prices multi-request batches out;
     the optimum collapses to the paper policy. *)
  if s.Solve.actions <> base.Optimize.actions then
    Alcotest.fail "huge batch energy should reproduce the base policy";
  Test_util.check_close ~tol:1e-9 "energy-priced gain" base.Optimize.gain
    s.Solve.gain;
  if Array.exists (fun a -> Batching.batch_of_action b a > 1) s.Solve.actions
  then Alcotest.fail "policy kept an uneconomical batch"

(* --- Sweeps: domain-count bit-identity ------------------------------- *)

let sweep_bit_identity () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let service = Phase_type.fit ~mean:1.5 ~scv:0.5 in
  let ph = paper_phased ~service () in
  let build w = Phased.to_ctmdp ph ~weight:w in
  let weights = [ 0.1; 1.0; 5.0; 20.0 ] in
  let run domains =
    List.map
      (fun (w, r) ->
        let s = ok_exn (Printf.sprintf "sweep w=%g" w) r in
        (w, bits s.Solve.gain, s.Solve.actions))
      (Solve.sweep ~domains ~weights build)
  in
  let r1 = run 1 in
  List.iter
    (fun domains ->
      if run domains <> r1 then
        Alcotest.failf "sweep at %d domains is not bit-identical" domains)
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "phase-type moment fits" `Quick phase_type_fit;
    Alcotest.test_case "phase-type views and spec grammar" `Quick
      phase_type_views;
    Alcotest.test_case "phase-type invalid arguments" `Quick phase_type_invalid;
    prop_erlang1_bit_identity;
    Alcotest.test_case "degenerate scenario models share the cache" `Quick
      degenerate_models_share_cache;
    Alcotest.test_case "erlang-k and hyper2 services solve and cross-check"
      `Quick erlang_k_and_hyper2_solve;
    Alcotest.test_case "K=2 polling matches the independent GTH oracle" `Quick
      polling_matches_oracle;
    Alcotest.test_case "polling index roundtrip" `Quick polling_index_roundtrip;
    Alcotest.test_case "polling progress constraints" `Quick
      polling_progress_constraints;
    prop_polling_throughput_conservation;
    Alcotest.test_case "polling deadline guard" `Quick polling_deadline_guard;
    Alcotest.test_case "solve stamps its deadline into the provenance" `Quick
      solve_stamps_deadline;
    Alcotest.test_case "batch-1 reproduces the golden pins" `Quick
      batch1_reproduces_golden_pins;
    Alcotest.test_case "gain is monotone in the batch cap" `Quick
      batching_monotone_in_cap;
    Alcotest.test_case "prohibitive batch energy reproduces the base policy"
      `Quick batching_energy_disables_batches;
    Alcotest.test_case "scenario sweeps are bit-identical across domains"
      `Quick sweep_bit_identity;
  ]
