open Dpm_core

type stats = {
  events_ingested : int;
  queue_drops : int;
  decisions : int;
  resolves : int;
  resolve_failures : int;
  policy_switches : int;
  checkpoints : int;
  checkpoint_failures : int;
  health_transitions : int;
}

type t = {
  sys : Sys_model.t;
  weight : float;
  fingerprint : int64;
  mutable estimator : Dpm_adapt.Estimator.t;
  health : Health.t;
  backoff : Backoff.t;
  pending : float Bqueue.t;
  safe_actions : int array;
  mutable actions : int array;
  mutable deployed_rate : float;
  min_observations : int;
  cooldown : float;
  deadline_s : float option;
  quantize : float -> float;
  faults : Dpm_robust.Fault.plan option;
  checkpoint_path : string option;
  checkpoint_every : int;
  mutable events_since_checkpoint : int;
  mutable now : float;
  mutable last_attempt : float;
  mutable last_error : Dpm_robust.Error.t option;
  mutable last_provenance : Dpm_trace.Provenance.t option;
  (* counters restored from a checkpoint enter as bases so stats
     survive restarts *)
  mutable ingested_base : int;
  mutable drops_base : int;
  mutable decisions_count : int;
  mutable resolves_count : int;
  mutable resolve_failures_count : int;
  mutable policy_switches_count : int;
  mutable checkpoints_count : int;
  mutable checkpoint_failures_count : int;
  mutable restored : bool;
}

let src = Logs.Src.create "dpm.serve" ~doc:"serving engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* [extra] runs only under an active recorder: a re-solve with tracing
   off builds no argument list. *)
let trace_resolve ~outcome ~now ~rate ~extra =
  if Dpm_trace.Recorder.enabled () then
    Dpm_trace.Recorder.instant "serve.resolve"
      ~args:
        (("outcome", Dpm_trace.Event.Str outcome)
         :: ("sim_time", Dpm_trace.Event.Float now)
         :: ("rate", Dpm_trace.Event.Float rate)
         :: extra ())

let create ?(weight = 0.0) ?estimator ?(min_observations = 30)
    ?(cooldown = 100.0) ?deadline_s ?checkpoint_path ?(checkpoint_every = 64)
    ?(queue_capacity = 1024) ?backoff ?faults
    ?(quantize = Dpm_adapt.Adaptive.quantize_log ~per_efold:16) sys =
  if min_observations < 2 then
    invalid_arg "Engine.create: min_observations must be >= 2";
  if cooldown < 0.0 || not (Float.is_finite cooldown) then
    invalid_arg "Engine.create: cooldown must be nonnegative and finite";
  if checkpoint_every < 1 then
    invalid_arg "Engine.create: checkpoint_every must be >= 1";
  let faults =
    match faults with Some _ as f -> f | None -> Dpm_robust.Fault.of_env ()
  in
  let backoff = match backoff with Some b -> b | None -> Backoff.create () in
  let fingerprint =
    Dpm_cache.Fingerprint.model_hash (Sys_model.to_ctmdp sys ~weight)
  in
  let safe_actions = Policies.actions_array sys (Policies.always_on sys) in
  let fresh_estimator () =
    match estimator with
    | Some e -> e
    | None -> Dpm_adapt.Estimator.sliding_window ~window:50 ()
  in
  let make ~estimator ~health ~actions ~deployed_rate ~last_provenance
      ~ingested_base ~drops_base ~restored =
    {
      sys;
      weight;
      fingerprint;
      estimator;
      health;
      backoff;
      pending = Bqueue.create ~capacity:queue_capacity;
      safe_actions;
      actions;
      deployed_rate;
      min_observations;
      cooldown;
      deadline_s;
      quantize;
      faults;
      checkpoint_path;
      checkpoint_every;
      events_since_checkpoint = 0;
      now = 0.0;
      last_attempt = neg_infinity;
      last_error = None;
      last_provenance;
      ingested_base;
      drops_base;
      decisions_count = 0;
      resolves_count = 0;
      resolve_failures_count = 0;
      policy_switches_count = 0;
      checkpoints_count = 0;
      checkpoint_failures_count = 0;
      restored;
    }
  in
  let cold_start () =
    match
      Dpm_robust.Guard.run ~stage:"serve.cold_solve" ?faults (fun guard ->
          Optimize.solve ~weight ~guard sys)
    with
    | Ok solution ->
        make ~estimator:(fresh_estimator ())
          ~health:(Health.create Health.Healthy)
          ~actions:solution.Optimize.actions
          ~deployed_rate:(Sys_model.arrival_rate sys)
          ~last_provenance:(Some solution.Optimize.provenance)
          ~ingested_base:0 ~drops_base:0 ~restored:false
    | Error e ->
        Log.warn (fun m ->
            m "cold solve failed (%s); starting in safe mode"
              (Dpm_robust.Error.to_string e));
        let t =
          make ~estimator:(fresh_estimator ())
            ~health:(Health.create Health.Safe_mode)
            ~actions:(Array.copy safe_actions)
            ~deployed_rate:(Sys_model.arrival_rate sys) ~last_provenance:None
            ~ingested_base:0 ~drops_base:0 ~restored:false
        in
        t.last_error <- Some e;
        t
  in
  let safe_start ~reason ~ingested_base ~drops_base =
    Log.warn (fun m -> m "checkpoint rejected (%s); pinning safe policy" reason);
    Dpm_obs.Probe.incr "serve.checkpoint_rejected";
    let health = Health.create Health.Healthy in
    Health.apply health Health.Checkpoint_invalid ~now:0.0;
    make ~estimator:(fresh_estimator ()) ~health
      ~actions:(Array.copy safe_actions)
      ~deployed_rate:(Sys_model.arrival_rate sys) ~last_provenance:None
      ~ingested_base ~drops_base ~restored:false
  in
  let t =
    match checkpoint_path with
    | Some path when Sys.file_exists path -> (
        match Checkpoint.load ~path with
        | Error msg ->
            Log.warn (fun m ->
                m "unreadable checkpoint %s (%s); cold start" path msg);
            cold_start ()
        | Ok cp ->
            if cp.Checkpoint.fingerprint <> fingerprint then
              safe_start ~reason:"fingerprint mismatch"
                ~ingested_base:cp.Checkpoint.events_ingested
                ~drops_base:cp.Checkpoint.drops
            else if
              (* A stored table is only deployable if it indexes this
                 state space and every entry is a legal command. *)
              Array.length cp.Checkpoint.actions <> Sys_model.num_states sys
              || Result.is_error
                   (Policies.check_valid sys (fun x ->
                        cp.Checkpoint.actions.(Sys_model.index sys x)))
            then
              safe_start ~reason:"invalid action table"
                ~ingested_base:cp.Checkpoint.events_ingested
                ~drops_base:cp.Checkpoint.drops
            else (
              match Dpm_adapt.Estimator.of_json cp.Checkpoint.estimator with
              | Error msg ->
                  safe_start ~reason:msg
                    ~ingested_base:cp.Checkpoint.events_ingested
                    ~drops_base:cp.Checkpoint.drops
              | Ok est ->
                  Dpm_obs.Probe.incr "serve.restores";
                  if Dpm_trace.Recorder.enabled () then
                    Dpm_trace.Recorder.instant "serve.restore"
                      ~args:
                        [
                          ( "saved_at",
                            Dpm_trace.Event.Float cp.Checkpoint.saved_at );
                          ( "health",
                            Dpm_trace.Event.Str
                              (Health.state_to_string cp.Checkpoint.health) );
                        ];
                  make ~estimator:est
                    ~health:
                      (Health.create ~now:cp.Checkpoint.saved_at
                         cp.Checkpoint.health)
                    ~actions:(Array.copy cp.Checkpoint.actions)
                    ~deployed_rate:cp.Checkpoint.deployed_rate
                    ~last_provenance:None
                    ~ingested_base:cp.Checkpoint.events_ingested
                    ~drops_base:cp.Checkpoint.drops ~restored:true))
    | Some _ | None -> cold_start ()
  in
  Dpm_obs.Probe.set "serve.deployed_rate" t.deployed_rate;
  t

let events_ingested t = t.ingested_base + Bqueue.accepted t.pending
let queue_drops t = t.drops_base + Bqueue.dropped t.pending

let offer_arrival t ~at =
  if not (Float.is_finite at) then false
  else begin
    let accepted = Bqueue.push t.pending at in
    if accepted then Dpm_obs.Probe.incr "serve.events_ingested";
    accepted
  end

let checkpoint t =
  match t.checkpoint_path with
  | None -> Error "no checkpoint path configured"
  | Some path -> (
      let cp =
        {
          Checkpoint.saved_at = t.now;
          fingerprint = t.fingerprint;
          deployed_rate = t.deployed_rate;
          weight = t.weight;
          actions = Array.copy t.actions;
          health = Health.state t.health;
          estimator = Dpm_adapt.Estimator.to_json t.estimator;
          events_ingested = events_ingested t;
          drops = queue_drops t;
        }
      in
      match Checkpoint.save ~path cp with
      | Ok () ->
          t.checkpoints_count <- t.checkpoints_count + 1;
          t.events_since_checkpoint <- 0;
          Ok path
      | Error msg ->
          t.checkpoint_failures_count <- t.checkpoint_failures_count + 1;
          Dpm_obs.Probe.incr "serve.checkpoint_failures";
          Log.warn (fun m -> m "checkpoint to %s failed: %s" path msg);
          Error msg)

(* The estimate worth re-solving for.  Healthy/Degraded: drift-gated
   like [Dpm_adapt.Adaptive] — only when the deployed rate falls
   outside the estimator's confidence band.  Safe_mode: any attempt
   is worth making (the incumbent is the pinned safe table, not an
   optimum), at the estimate when one exists, else the nominal
   rate. *)
let resolve_target t =
  match Health.state t.health with
  | Health.Safe_mode ->
      let est =
        if
          Dpm_adapt.Estimator.observations t.estimator >= t.min_observations
        then Dpm_adapt.Estimator.rate t.estimator
        else None
      in
      Some
        (t.quantize (Option.value est ~default:(Sys_model.arrival_rate t.sys)))
  | Health.Healthy | Health.Degraded ->
      if Dpm_adapt.Estimator.observations t.estimator < t.min_observations
      then None
      else (
        match Dpm_adapt.Estimator.band t.estimator with
        | None -> None
        | Some (lo, hi) ->
            if t.deployed_rate < lo || t.deployed_rate > hi then (
              match Dpm_adapt.Estimator.rate t.estimator with
              | None -> None
              | Some est ->
                  let target = t.quantize est in
                  if target <> t.deployed_rate then Some target else None)
            else None)

let attempt_resolve t ~target =
  t.last_attempt <- t.now;
  t.resolves_count <- t.resolves_count + 1;
  Dpm_obs.Probe.incr "serve.resolves";
  Dpm_obs.Probe.set "serve.target_rate" target;
  match
    Dpm_robust.Guard.run ~stage:"serve.resolve" ?deadline_s:t.deadline_s
      ?faults:t.faults (fun guard ->
        Optimize.solve ~weight:t.weight ~init_actions:t.actions ~guard
          (Sys_model.with_arrival_rate t.sys target))
  with
  | Ok solution ->
      t.actions <- solution.Optimize.actions;
      t.deployed_rate <- target;
      t.policy_switches_count <- t.policy_switches_count + 1;
      t.last_error <- None;
      let provenance =
        {
          solution.Optimize.provenance with
          Dpm_trace.Provenance.deadline_s = t.deadline_s;
        }
      in
      t.last_provenance <- Some provenance;
      Backoff.note_success t.backoff;
      Health.apply t.health Health.Resolve_ok ~now:t.now;
      Dpm_obs.Probe.incr "serve.policy_switches";
      Dpm_obs.Probe.set "serve.deployed_rate" target;
      trace_resolve ~outcome:"deployed" ~now:t.now ~rate:target
        ~extra:(fun () -> Dpm_trace.Provenance.to_args provenance)
  | Error e ->
      t.resolve_failures_count <- t.resolve_failures_count + 1;
      t.last_error <- Some e;
      Backoff.note_failure t.backoff;
      Health.apply t.health Health.Resolve_failed ~now:t.now;
      Dpm_obs.Probe.incr "serve.resolve_failures";
      let cls = Dpm_robust.Error.class_name e in
      Log.warn (fun m ->
          m "re-solve at rate %g failed (%s); %s, retry backoff %gs" target cls
            (Health.state_to_string (Health.state t.health))
            (Backoff.delay t.backoff));
      trace_resolve ~outcome:"failed" ~now:t.now ~rate:target
        ~extra:(fun () -> [ ("error", Dpm_trace.Event.Str cls) ])

let maybe_resolve t =
  if t.now -. t.last_attempt >= t.cooldown +. Backoff.delay t.backoff then
    match resolve_target t with
    | None -> ()
    | Some target -> attempt_resolve t ~target

let rec pump t =
  match Bqueue.pop t.pending with
  | None -> ()
  | Some at ->
      if at > t.now then t.now <- at;
      Dpm_adapt.Estimator.observe_arrival t.estimator ~now:at;
      Health.observe t.health ~now:t.now;
      maybe_resolve t;
      t.events_since_checkpoint <- t.events_since_checkpoint + 1;
      if
        t.checkpoint_path <> None
        && t.events_since_checkpoint >= t.checkpoint_every
      then ignore (checkpoint t : (string, string) result);
      pump t

let decide t state =
  t.decisions_count <- t.decisions_count + 1;
  Dpm_obs.Probe.incr "serve.decisions";
  t.actions.(Sys_model.index t.sys state)

let health t = Health.state t.health
let degraded_fraction t = Health.degraded_fraction t.health
let consecutive_failures t = Backoff.failures t.backoff
let last_error t = t.last_error
let last_provenance t = t.last_provenance
let deployed_rate t = t.deployed_rate
let deployed_actions t = Array.copy t.actions
let now t = t.now
let sys t = t.sys
let restored t = t.restored

let stats t =
  {
    events_ingested = events_ingested t;
    queue_drops = queue_drops t;
    decisions = t.decisions_count;
    resolves = t.resolves_count;
    resolve_failures = t.resolve_failures_count;
    policy_switches = t.policy_switches_count;
    checkpoints = t.checkpoints_count;
    checkpoint_failures = t.checkpoint_failures_count;
    health_transitions = Health.transitions t.health;
  }
