open Dpm_core
open Dpm_linalg

let t = Alcotest.test_case

let indexing_roundtrip () =
  let capacity = 4 in
  Alcotest.(check int) "dim" 9 (Service_queue.dim ~capacity);
  for k = 0 to Service_queue.dim ~capacity - 1 do
    let s = Service_queue.state_of_index ~capacity k in
    Alcotest.(check int)
      (Printf.sprintf "roundtrip %d" k)
      k
      (Service_queue.index ~capacity s)
  done;
  Alcotest.(check int) "stable 0" 0 (Service_queue.index ~capacity (Stable 0));
  Alcotest.(check int) "transfer 1" 5 (Service_queue.index ~capacity (Transfer 1));
  Test_util.check_raises_invalid "stable out of range" (fun () ->
      ignore (Service_queue.index ~capacity (Stable 5)));
  Test_util.check_raises_invalid "transfer 0 invalid" (fun () ->
      ignore (Service_queue.index ~capacity (Transfer 0)))

let waiting_requests_cost () =
  (* C_sq = i for q_i and i-1 for q_{i->i-1} (Section III). *)
  Alcotest.(check int) "stable" 3 (Service_queue.waiting_requests (Stable 3));
  Alcotest.(check int) "transfer" 2 (Service_queue.waiting_requests (Transfer 3))

let four_transition_families () =
  let capacity = 3 in
  let lam = 0.4 and mu = 1.2 and chi = 2.0 in
  let g =
    Service_queue.generator ~capacity ~arrival_rate:lam ~service_rate:mu
      ~switch_out_rate:chi
  in
  let idx s = Service_queue.index ~capacity s in
  let get a b = Dpm_ctmc.Generator.get g (idx a) (idx b) in
  (* (1) stable arrivals *)
  Test_util.check_close "q0 -> q1" lam (get (Stable 0) (Stable 1));
  Test_util.check_close "q2 -> q3" lam (get (Stable 2) (Stable 3));
  Test_util.check_close "no overflow arrival" 0.0
    (Dpm_ctmc.Generator.exit_rate g (idx (Stable 3)) -. mu);
  (* (2) service completion into transfer *)
  Test_util.check_close "q2 -> q2>1" mu (get (Stable 2) (Transfer 2));
  Test_util.check_close "q0 has no service" 0.0
    (Dpm_ctmc.Generator.exit_rate g (idx (Stable 0)) -. lam);
  (* (3) transfer resolution *)
  Test_util.check_close "q2>1 -> q1" chi (get (Transfer 2) (Stable 1));
  (* (4) transfer arrivals *)
  Test_util.check_close "q2>1 -> q3>2" lam (get (Transfer 2) (Transfer 3));
  (* boundary: full transfer state only resolves *)
  Test_util.check_close "q3>2 exit" chi
    (Dpm_ctmc.Generator.exit_rate g (idx (Transfer 3)))

let inactive_mode_has_no_service_family () =
  let g =
    Service_queue.generator ~capacity:2 ~arrival_rate:1.0 ~service_rate:0.0
      ~switch_out_rate:3.0
  in
  let idx s = Service_queue.index ~capacity:2 s in
  Test_util.check_close "no q1 -> transfer" 0.0
    (Dpm_ctmc.Generator.get g (idx (Stable 1)) (idx (Transfer 1)))

let queue_is_connected_with_service () =
  let g =
    Service_queue.generator ~capacity:5 ~arrival_rate:0.2 ~service_rate:0.7
      ~switch_out_rate:1.0
  in
  Alcotest.(check bool) "irreducible" true (Dpm_ctmc.Structure.is_irreducible g)

let validation () =
  Test_util.check_raises_invalid "capacity 0" (fun () ->
      ignore
        (Service_queue.generator ~capacity:0 ~arrival_rate:1.0 ~service_rate:1.0
           ~switch_out_rate:1.0));
  Test_util.check_raises_invalid "negative rate" (fun () ->
      ignore
        (Service_queue.generator ~capacity:2 ~arrival_rate:(-1.0)
           ~service_rate:1.0 ~switch_out_rate:1.0))

let prop_row_sums_zero =
  Test_util.qtest ~count:80 "SQ generator rows sum to zero"
    QCheck2.Gen.(
      quad (int_range 1 10) (float_range 0.01 3.0) (float_range 0.0 3.0)
        (float_range 0.01 5.0))
    (fun (capacity, lam, mu, chi) ->
      let g =
        Service_queue.generator ~capacity ~arrival_rate:lam ~service_rate:mu
          ~switch_out_rate:chi
      in
      Vec.norm_inf (Matrix.row_sums (Dpm_ctmc.Generator.to_matrix g)) <= 1e-9)

let suite =
  [
    t "indexing" `Quick indexing_roundtrip;
    t "waiting requests" `Quick waiting_requests_cost;
    t "four transition families" `Quick four_transition_families;
    t "inactive mode" `Quick inactive_mode_has_no_service_family;
    t "connected" `Quick queue_is_connected_with_service;
    t "validation" `Quick validation;
    prop_row_sums_zero;
  ]
