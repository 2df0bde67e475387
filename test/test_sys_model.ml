open Dpm_core
open Dpm_linalg

let t = Alcotest.test_case

let sys ?(q = 5) ?(lam = 1.0 /. 6.0) () =
  Sys_model.create ~sp:(Paper_instance.service_provider ()) ~queue_capacity:q
    ~arrival_rate:lam ()

let state_space_size () =
  let s = sys () in
  (* |X| = S (Q+1) + |S_active| Q = 3*6 + 1*5 = 23. *)
  Alcotest.(check int) "paper instance size" 23 (Sys_model.num_states s);
  Alcotest.(check int) "states array" 23 (Array.length (Sys_model.states s))

let indexing_roundtrip () =
  let s = sys () in
  Array.iteri
    (fun k x ->
      Alcotest.(check int) (Format.asprintf "%a" (Sys_model.pp_state s) x) k
        (Sys_model.index s x))
    (Sys_model.states s);
  Test_util.check_raises_invalid "transfer of inactive mode" (fun () ->
      ignore (Sys_model.index s (Sys_model.Transfer (Paper_instance.sleeping, 1))));
  Test_util.check_raises_invalid "queue out of range" (fun () ->
      ignore (Sys_model.index s (Sys_model.Stable (0, 6))))

let cost_components () =
  let s = sys () in
  Alcotest.(check int) "stable waiting" 3
    (Sys_model.waiting_requests (Sys_model.Stable (0, 3)));
  Alcotest.(check int) "transfer waiting" 2
    (Sys_model.waiting_requests (Sys_model.Transfer (0, 3)));
  (* Power cost: pow(s) + chi * ene for a commanded switch. *)
  Test_util.check_close "stay cost is pow" 40.0
    (Sys_model.power_cost s (Sys_model.Stable (0, 0)) ~action:0);
  (* active -> waiting: 40 + (1/0.1)*0.2 = 42. *)
  Test_util.check_close "switch cost adds energy rate" 42.0
    (Sys_model.power_cost s (Sys_model.Stable (0, 0)) ~action:1);
  (* sleeping -> active: 0.1 + (1/1.1)*11 = 10.1. *)
  Test_util.check_close "wakeup power" (0.1 +. (11.0 /. 1.1))
    (Sys_model.power_cost s (Sys_model.Stable (2, 1)) ~action:0);
  (* Weighted total, Eqn 3.1. *)
  Test_util.check_close "weighted cost" (40.0 +. (2.0 *. 3.0))
    (Sys_model.cost s ~weight:2.0 (Sys_model.Stable (0, 3)) ~action:0)

let constraint_1_stable_active () =
  let s = sys () in
  for i = 0 to 5 do
    Alcotest.(check (list int))
      (Printf.sprintf "active stable q%d" i)
      [ 0 ]
      (Sys_model.valid_actions s (Sys_model.Stable (0, i)))
  done

let constraint_2_full_queue_inactive () =
  let s = sys () in
  (* waiting (wakeup 0.5) at q5: active, or nothing slower. *)
  Alcotest.(check (list int)) "waiting at full queue" [ 0 ]
    (Sys_model.valid_actions s (Sys_model.Stable (1, 5)));
  (* sleeping (wakeup 1.1) at q5: active or the faster-waking waiting. *)
  Alcotest.(check (list int)) "sleeping at full queue" [ 0; 1 ]
    (Sys_model.valid_actions s (Sys_model.Stable (2, 5)));
  (* below full, anything goes for inactive modes *)
  Alcotest.(check (list int)) "sleeping below full" [ 0; 1; 2 ]
    (Sys_model.valid_actions s (Sys_model.Stable (2, 4)))

let constraint_3_full_transfer () =
  let s = sys () in
  (* Single active mode: staying (equal speed) and inactive targets
     are legal even in the full transfer state. *)
  Alcotest.(check (list int)) "full transfer" [ 0; 1; 2 ]
    (Sys_model.valid_actions s (Sys_model.Transfer (0, 5)))

let constraint_3_multi_speed () =
  let sp =
    Service_provider.create
      ~names:[| "slow"; "fast"; "off" |]
      ~switch_time:[| [| 0.0; 0.2; 0.3 |]; [| 0.2; 0.0; 0.3 |]; [| 1.0; 1.5; 0.0 |] |]
      ~service_rate:[| 0.5; 2.0; 0.0 |]
      ~power:[| 10.0; 30.0; 0.2 |]
      ~switch_energy:
        [| [| 0.0; 1.0; 1.0 |]; [| 1.0; 0.0; 1.0 |]; [| 5.0; 8.0; 0.0 |] |]
  in
  let s = Sys_model.create ~sp ~queue_capacity:3 ~arrival_rate:1.0 () in
  (* In the full transfer state the fast server may not downshift. *)
  Alcotest.(check (list int)) "fast in full transfer" [ 1; 2 ]
    (Sys_model.valid_actions s (Sys_model.Transfer (1, 3)));
  Alcotest.(check (list int)) "slow in full transfer may upshift" [ 0; 1; 2 ]
    (Sys_model.valid_actions s (Sys_model.Transfer (0, 3)));
  (* Constraint 1 with two active modes: active stable states offer
     both speeds. *)
  Alcotest.(check (list int)) "stable active choices" [ 0; 1 ]
    (Sys_model.valid_actions s (Sys_model.Stable (0, 2)))

let transition_structure () =
  let s = sys () in
  let idx = Sys_model.index s in
  let lam = 1.0 /. 6.0 and mu = 1.0 /. 1.5 in
  (* Stable active with queue: arrival + service (+ no switch for stay). *)
  let row = Sys_model.transitions s (Sys_model.Stable (0, 2)) ~action:0 in
  Alcotest.(check int) "two transitions" 2 (List.length row);
  Test_util.check_close "arrival" lam
    (List.assoc (idx (Sys_model.Stable (0, 3))) row);
  Test_util.check_close "service" mu
    (List.assoc (idx (Sys_model.Transfer (0, 2))) row);
  (* Stable inactive commanded to wake. *)
  let row = Sys_model.transitions s (Sys_model.Stable (2, 1)) ~action:0 in
  Test_util.check_close "wakeup rate" (1.0 /. 1.1)
    (List.assoc (idx (Sys_model.Stable (0, 1))) row);
  (* Transfer resolving to sleep. *)
  let row = Sys_model.transitions s (Sys_model.Transfer (0, 1)) ~action:2 in
  Test_util.check_close "transfer resolution" (1.0 /. 0.2)
    (List.assoc (idx (Sys_model.Stable (2, 0))) row);
  (* Transfer staying: big-M self switch. *)
  let row = Sys_model.transitions s (Sys_model.Transfer (0, 3)) ~action:0 in
  Test_util.check_close "self switch big-M" (Sys_model.self_switch_rate s)
    (List.assoc (idx (Sys_model.Stable (0, 2))) row);
  (* Full stable state: no arrival transition. *)
  let row = Sys_model.transitions s (Sys_model.Stable (0, 5)) ~action:0 in
  Alcotest.(check int) "only service at q_Q" 1 (List.length row)

let queue_full_flags () =
  let s = sys () in
  Alcotest.(check bool) "stable full" true
    (Sys_model.is_queue_full s (Sys_model.Stable (1, 5)));
  Alcotest.(check bool) "transfer full" true
    (Sys_model.is_queue_full s (Sys_model.Transfer (0, 5)));
  Alcotest.(check bool) "not full" false
    (Sys_model.is_queue_full s (Sys_model.Stable (1, 4)))

let ctmdp_respects_constraints () =
  let s = sys () in
  let m = Sys_model.to_ctmdp s ~weight:1.0 in
  Alcotest.(check int) "state count" 23 (Dpm_ctmdp.Model.num_states m);
  Array.iteri
    (fun k x ->
      let labels =
        List.map (fun c -> c.Dpm_ctmdp.Model.action) (Dpm_ctmdp.Model.choices m k)
      in
      Alcotest.(check (list int))
        (Format.asprintf "choices of %a" (Sys_model.pp_state s) x)
        (Sys_model.valid_actions s x) labels)
    (Sys_model.states s)

(* --- The Section III tensor formula vs the direct builder ---------- *)

let tensor_matches_direct () =
  List.iter
    (fun action ->
      List.iter
        (fun q ->
          let s = sys ~q () in
          let direct = Sys_model.uniform_generator s ~action in
          let tensor = Sys_model.tensor_generator s ~action in
          if not (Matrix.approx_equal ~tol:0.0 direct tensor) then
            Alcotest.failf "action %d, Q=%d: tensor formula disagrees@.%a@.vs@.%a"
              action q Matrix.pp direct Matrix.pp tensor)
        [ 1; 2; 5 ])
    [ 0; 1; 2 ]

let every_valid_policy_is_unichain () =
  (* Exhaustively enumerate constraint-respecting policies on a small
     instance and check each induces a chain with a unique closed
     class (the paper's connectivity argument). *)
  let s = sys ~q:2 () in
  let m = Sys_model.to_ctmdp s ~weight:1.0 in
  let count = ref 0 in
  Seq.iter
    (fun p ->
      incr count;
      let g = Dpm_ctmdp.Policy.generator m p in
      match Dpm_ctmc.Structure.recurrent_classes g with
      | [ _ ] -> ()
      | cs ->
          Alcotest.failf "policy %d: %d closed classes" !count (List.length cs))
    (Dpm_ctmdp.Policy.enumerate m);
  Alcotest.(check bool) "checked many policies" true (!count > 1000)

let with_arrival_rate_rebuilds () =
  let s = sys () in
  let s2 = Sys_model.with_arrival_rate s 0.5 in
  Test_util.check_close "new rate" 0.5 (Sys_model.arrival_rate s2);
  Test_util.check_close "old rate intact" (1.0 /. 6.0) (Sys_model.arrival_rate s);
  Test_util.check_raises_invalid "bad rate" (fun () ->
      ignore (Sys_model.with_arrival_rate s 0.0))

let generator_row_sums_zero_for_all_policies () =
  let s = sys ~q:2 () in
  let m = Sys_model.to_ctmdp s ~weight:0.3 in
  let r = Dpm_ctmdp.Policy_iteration.solve m in
  let g =
    Sys_model.generator_of_actions s ~actions:(fun x ->
        r.Dpm_ctmdp.Policy_iteration.policy
        |> fun p -> Dpm_ctmdp.Policy.action m p (Sys_model.index s x))
  in
  Test_util.check_close "row sums" 0.0
    (Vec.norm_inf (Matrix.row_sums (Dpm_ctmc.Generator.to_matrix g)))

let suite =
  [
    t "state space size" `Quick state_space_size;
    t "indexing roundtrip" `Quick indexing_roundtrip;
    t "cost components (Eqn 3.1)" `Quick cost_components;
    t "constraint 1" `Quick constraint_1_stable_active;
    t "constraint 2" `Quick constraint_2_full_queue_inactive;
    t "constraint 3" `Quick constraint_3_full_transfer;
    t "constraint 3 multi-speed" `Quick constraint_3_multi_speed;
    t "transition structure" `Quick transition_structure;
    t "queue full flags" `Quick queue_full_flags;
    t "ctmdp respects constraints" `Quick ctmdp_respects_constraints;
    t "tensor formula matches direct builder" `Quick tensor_matches_direct;
    t "every valid policy is unichain" `Slow every_valid_policy_is_unichain;
    t "with_arrival_rate" `Quick with_arrival_rate_rebuilds;
    t "policy generator row sums" `Quick generator_row_sums_zero_for_all_policies;
  ]
