open Dpm_core

let t = Alcotest.test_case

let sys () = Paper_instance.system ()

let all_named_policies_valid () =
  let s = sys () in
  let check name policy =
    match Policies.check_valid s policy with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  check "always_on" (Policies.always_on s);
  check "greedy" (Policies.greedy s);
  for n = 1 to 5 do
    check (Printf.sprintf "n_policy %d" n) (Policies.n_policy s ~n)
  done

let greedy_decisions () =
  let s = sys () in
  let p = Policies.greedy s in
  (* Transfer emptying the queue -> deepest sleep. *)
  Alcotest.(check int) "sleep when emptied" Paper_instance.sleeping
    (p (Sys_model.Transfer (Paper_instance.active, 1)));
  (* Transfer with backlog -> keep serving. *)
  Alcotest.(check int) "keep serving" Paper_instance.active
    (p (Sys_model.Transfer (Paper_instance.active, 3)));
  (* Sleeping with one request -> wake. *)
  Alcotest.(check int) "wake on demand" Paper_instance.active
    (p (Sys_model.Stable (Paper_instance.sleeping, 1)));
  (* Sleeping with empty queue -> stay. *)
  Alcotest.(check int) "stay asleep" Paper_instance.sleeping
    (p (Sys_model.Stable (Paper_instance.sleeping, 0)))

let n_policy_threshold () =
  let s = sys () in
  let p = Policies.n_policy s ~n:3 in
  Alcotest.(check int) "below threshold stays down" Paper_instance.sleeping
    (p (Sys_model.Stable (Paper_instance.sleeping, 2)));
  Alcotest.(check int) "at threshold wakes" Paper_instance.active
    (p (Sys_model.Stable (Paper_instance.sleeping, 3)));
  Alcotest.(check int) "exhaustive service" Paper_instance.active
    (p (Sys_model.Transfer (Paper_instance.active, 2)))

let n_policy_clamped () =
  let s = sys () in
  let p99 = Policies.n_policy s ~n:99 in
  (* Clamped to Q = 5: the full queue must wake. *)
  Alcotest.(check int) "clamped to capacity" Paper_instance.active
    (p99 (Sys_model.Stable (Paper_instance.sleeping, 5)));
  match Policies.check_valid s p99 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "clamped policy invalid: %s" msg

let n1_equals_greedy () =
  let s = sys () in
  let a = Policies.actions_array s (Policies.greedy s) in
  let b = Policies.actions_array s (Policies.n_policy s ~n:1) in
  Alcotest.(check (array int)) "N=1 is greedy" a b

let always_on_never_sleeps () =
  let s = sys () in
  let p = Policies.always_on s in
  Array.iter
    (fun x ->
      let a = p x in
      if not (Service_provider.is_active (Sys_model.sp s) a) then
        Alcotest.failf "always_on commands inactive mode in %s"
          (Format.asprintf "%a" (Sys_model.pp_state s) x))
    (Sys_model.states s)

let check_valid_detects_violations () =
  let s = sys () in
  (* Command the active server to sleep in a stable state: violates
     constraint 1. *)
  let bad = function
    | Sys_model.Stable (0, _) -> Paper_instance.sleeping
    | x -> Policies.always_on s x
  in
  match Policies.check_valid s bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a constraint violation"

let to_ctmdp_policy_roundtrip () =
  let s = sys () in
  let m = Sys_model.to_ctmdp s ~weight:1.0 in
  let p = Policies.to_ctmdp_policy s m (Policies.greedy s) in
  Array.iteri
    (fun k x ->
      Alcotest.(check int)
        (Format.asprintf "action at %a" (Sys_model.pp_state s) x)
        (Policies.greedy s x)
        (Dpm_ctmdp.Policy.action m p k))
    (Sys_model.states s);
  Test_util.check_raises_invalid "invalid policy rejected" (fun () ->
      ignore
        (Policies.to_ctmdp_policy s m (function
          | Sys_model.Stable (0, _) -> Paper_instance.sleeping
          | x -> Policies.always_on s x)))

let suite =
  [
    t "named policies valid" `Quick all_named_policies_valid;
    t "greedy decisions" `Quick greedy_decisions;
    t "n-policy threshold" `Quick n_policy_threshold;
    t "n-policy clamped" `Quick n_policy_clamped;
    t "N=1 equals greedy" `Quick n1_equals_greedy;
    t "always-on never sleeps" `Quick always_on_never_sleeps;
    t "check_valid detects violations" `Quick check_valid_detects_violations;
    t "to_ctmdp_policy roundtrip" `Quick to_ctmdp_policy_roundtrip;
  ]
