open Dpm_core

type stats = {
  mutable resolves : int;
  mutable resolve_failures : int;
  mutable policy_switches : int;
  mutable deployed_rate : float;
}

type t = {
  sys : Sys_model.t;
  weight : float;
  estimator : Estimator.t;
  min_observations : int;
  cooldown : float;
  deadline_s : float option;
  faults : Dpm_robust.Fault.plan option;
  quantize : float -> float;
  mutable actions : int array;
  mutable last_attempt : float;
  mutable last_provenance : Dpm_trace.Provenance.t option;
  stats : stats;
}

let quantize_log ?(per_efold = 16) rate =
  if rate <= 0.0 || not (Float.is_finite rate) then
    invalid_arg "Adaptive.quantize_log: rate must be positive and finite";
  if per_efold < 1 then
    invalid_arg "Adaptive.quantize_log: per_efold must be >= 1";
  let k = float_of_int per_efold in
  Float.exp (Float.round (Float.log rate *. k) /. k)

let create ?(weight = 0.0) ?estimator ?(min_observations = 30)
    ?(cooldown = 100.0) ?deadline_s ?(quantize = quantize_log ~per_efold:16)
    sys =
  if min_observations < 2 then
    invalid_arg "Adaptive.create: min_observations must be >= 2";
  if cooldown < 0.0 || not (Float.is_finite cooldown) then
    invalid_arg "Adaptive.create: cooldown must be nonnegative and finite";
  let estimator =
    match estimator with
    | Some e -> e
    | None -> Estimator.sliding_window ~window:50 ()
  in
  (* The incumbent is solved unguarded at the system's nominal rate:
     a failure here is a configuration error the caller should see,
     not something to fall back from. *)
  let solution = Optimize.solve ~weight sys in
  {
    sys;
    weight;
    estimator;
    min_observations;
    cooldown;
    deadline_s;
    faults = Dpm_robust.Fault.of_env ();
    quantize;
    actions = solution.Optimize.actions;
    last_attempt = neg_infinity;
    last_provenance = Some solution.Optimize.provenance;
    stats =
      {
        resolves = 0;
        resolve_failures = 0;
        policy_switches = 0;
        deployed_rate = Sys_model.arrival_rate sys;
      };
  }

let stats t = t.stats
let estimator t = t.estimator
let last_provenance t = t.last_provenance
let deployed_actions t = Array.copy t.actions

let policy t state = t.actions.(Sys_model.index t.sys state)

(* The estimate worth re-solving for, or [None] while the deployed
   rate remains statistically plausible. *)
let drifted_estimate t =
  if Estimator.observations t.estimator < t.min_observations then None
  else
    match Estimator.band t.estimator with
    | None -> None
    | Some (lo, hi) ->
        if t.stats.deployed_rate < lo || t.stats.deployed_rate > hi then
          Estimator.rate t.estimator
        else None

let maybe_adapt t ~now =
  if now -. t.last_attempt >= t.cooldown then
    match drifted_estimate t with
    | None -> ()
    | Some estimate ->
        t.last_attempt <- now;
        Dpm_obs.Probe.set "adapt.estimated_rate" estimate;
        let target = t.quantize estimate in
        if target <> t.stats.deployed_rate then begin
          t.stats.resolves <- t.stats.resolves + 1;
          Dpm_obs.Probe.incr "adapt.resolves";
          match
            Dpm_robust.Guard.run ~stage:"adapt.resolve"
              ?deadline_s:t.deadline_s ?faults:t.faults (fun guard ->
                Optimize.solve ~weight:t.weight ~init_actions:t.actions ~guard
                  (Sys_model.with_arrival_rate t.sys target))
          with
          | Ok solution ->
              t.actions <- solution.Optimize.actions;
              t.stats.deployed_rate <- target;
              t.stats.policy_switches <- t.stats.policy_switches + 1;
              (* Pin the deadline the solve actually ran under; the
                 lower layers never see it (it lives in the guard). *)
              let provenance =
                {
                  solution.Optimize.provenance with
                  Dpm_trace.Provenance.deadline_s = t.deadline_s;
                }
              in
              t.last_provenance <- Some provenance;
              Dpm_obs.Probe.incr "adapt.policy_switches";
              Dpm_obs.Probe.set "adapt.deployed_rate" target;
              if Dpm_trace.Recorder.enabled () then
                Dpm_trace.Recorder.instant "adapt.resolve"
                  ~args:
                    (("outcome", Dpm_trace.Event.Str "deployed")
                     :: ("sim_time", Dpm_trace.Event.Float now)
                     :: ("rate", Dpm_trace.Event.Float target)
                     :: Dpm_trace.Provenance.to_args provenance)
          | Error _ ->
              (* Keep the incumbent policy; the cooldown spaces out
                 retries so a persistently failing solver degrades the
                 controller to a static one instead of stalling it. *)
              t.stats.resolve_failures <- t.stats.resolve_failures + 1;
              Dpm_obs.Probe.incr "adapt.resolve_failures";
              if Dpm_trace.Recorder.enabled () then
                Dpm_trace.Recorder.instant "adapt.resolve"
                  ~args:
                    [
                      ("outcome", Dpm_trace.Event.Str "failed");
                      ("sim_time", Dpm_trace.Event.Float now);
                      ("rate", Dpm_trace.Event.Float target);
                    ]
        end

let controller ?(name = "adaptive") t =
  let inner =
    Dpm_sim.Controller.of_dynamic_policy ~name t.sys ~policy:(fun () ->
        policy t)
  in
  let decide obs reason =
    (match reason with
    | Dpm_sim.Controller.Arrival | Dpm_sim.Controller.Arrival_lost ->
        Estimator.observe_arrival t.estimator
          ~now:obs.Dpm_sim.Controller.time
    | Dpm_sim.Controller.Init | Dpm_sim.Controller.Service_completed _
    | Dpm_sim.Controller.Switch_completed | Dpm_sim.Controller.Timer ->
        ());
    maybe_adapt t ~now:obs.Dpm_sim.Controller.time;
    inner.Dpm_sim.Controller.decide obs reason
  in
  { inner with Dpm_sim.Controller.decide }
