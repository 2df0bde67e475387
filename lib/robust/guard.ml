open Dpm_linalg

let of_deadline = function
  | None -> ignore
  | Some seconds ->
      if not (seconds >= 0.0) then
        invalid_arg "Dpm_robust.Guard.of_deadline: budget must be >= 0";
      let start = Dpm_obs.Probe.now () in
      fun () ->
        let elapsed_s = Dpm_obs.Probe.now () -. start in
        (* [>=], not [>]: a zero budget fires deterministically on the
           first tick, which the fault tests rely on. *)
        if elapsed_s >= seconds then begin
          Dpm_obs.Probe.incr "robust.deadline_exceeded";
          raise (Error.Deadline_signal { budget_s = seconds; elapsed_s })
        end

let non_finite site =
  Dpm_obs.Probe.incr "robust.non_finite";
  raise (Error.Non_finite_signal site)

let check_finite ~site x = if not (Float.is_finite x) then non_finite site

let check_finite_vec ~site v =
  for i = 0 to Vec.dim v - 1 do
    if not (Float.is_finite v.(i)) then
      non_finite (Printf.sprintf "%s[%d]" site i)
  done

let run ~stage ?deadline_s ?faults f =
  let deadline = of_deadline deadline_s in
  let guard =
    match faults with
    | Some plan when Fault.has plan Fault.Stall ->
        fun () ->
          Fault.stall ();
          deadline ()
    | Some _ | None -> deadline
  in
  match f guard with
  | v -> Ok v
  | exception exn -> (
      let bt = Printexc.get_raw_backtrace () in
      match Error.of_exn exn with
      | None -> Printexc.raise_with_backtrace exn bt
      | Some e ->
          Dpm_obs.Probe.incr "robust.errors";
          Logs.debug (fun k ->
              k "robust: %s failed with %a" stage Error.pp e);
          Error e)
