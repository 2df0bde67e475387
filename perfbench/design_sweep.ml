(* design-sweep: offline design-space exploration.  One op is one cold,
   verified solve of a model no other op shares — build, validation
   (scenario families), a fingerprint miss, policy iteration and, for
   the paper system, analytic metrics.  Policy evaluation is almost all
   of it, so this is the workload a change to evaluation moves; it
   writes the solve cache and never reads it back. *)

open Dpm_core
module S = Dpm_scenario
module C = Common

(* Five passes a run (see [Common.combine]) at about 25 ops per second
   on a 2-vCPU VM: fewer passes than the other workloads make, so that
   a pass holds some 150 ops.  The tail is then the cost of the largest
   models, which the stratified draws make alike from seed to seed; at
   80 ops a pass it fell among mid-size sparse models, whose cost climbs
   steeply with size, and moved by half between seeds.  The op count of
   a pass is a function of --seconds only, never of the machine, so
   every run of a seed does the same work. *)
let passes = 5

let ops_per_second = 25
let ops_for ~seconds = max 8 (seconds * ops_per_second / passes)

(* The paper SP with its service rate scaled. *)
let paper_sp ~mu_f =
  let base = Paper_instance.service_provider () in
  let n = Service_provider.num_modes base in
  let matrix f =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0.0 else f base i j))
  in
  Service_provider.create
    ~names:(Array.init n (Service_provider.name base))
    ~switch_time:(matrix Service_provider.switch_time)
    ~service_rate:
      (Array.init n (fun i -> Service_provider.service_rate base i *. mu_f))
    ~power:(Array.init n (Service_provider.power base))
    ~switch_energy:(matrix Service_provider.switch_energy)

let system ~q ~lam_f ~mu_f =
  Sys_model.create ~sp:(paper_sp ~mu_f) ~queue_capacity:q
    ~arrival_rate:(Paper_instance.arrival_rate *. lam_f)
    ()

let scenario_model (job : Gen.job) =
  let mu0 = Paper_instance.service_rate in
  match job with
  | Gen.Sys { q; weight; lam_f; mu_f } ->
      Sys_model.to_ctmdp (system ~q ~lam_f ~mu_f) ~weight
  | Gen.Phased { q; service; weight; lam_f; mu_f } ->
      let mu = mu0 *. mu_f in
      let service =
        match service with
        | Gen.Erlang2 -> S.Phase_type.erlang 2 (2.0 *. mu)
        | Gen.Erlang4 -> S.Phase_type.erlang 4 (4.0 *. mu)
        | Gen.Hyper2 -> S.Phase_type.fit ~mean:(1.0 /. mu) ~scv:3.0
      in
      S.Phased.to_ctmdp
        (S.Phased.create ~sp:(paper_sp ~mu_f) ~queue_capacity:q
           ~arrival_rate:(Paper_instance.arrival_rate *. lam_f)
           ~service ())
        ~weight
  | Gen.Batching { q; max_batch; weight; lam_f; mu_f } ->
      S.Batching.to_ctmdp
        (S.Batching.create ~sys:(system ~q ~lam_f ~mu_f) ~max_batch
           ~service_rate:(fun b -> mu0 *. mu_f *. (float_of_int b ** 0.7))
           ~batch_energy:(fun _ -> 0.2)
           ())
        ~weight
  | Gen.Polling { cap; weight; lam_f; mu_f } ->
      (* Solms' two-queue polling server: exponential service, Erlang-2
         switch-over, the second queue busier and twice as costly. *)
      let queue rate w =
        S.Polling.queue ~weight:w ~arrival_rate:(rate *. lam_f) ~capacity:cap
          ~service:(S.Phase_type.exp_ mu_f)
          ~switch_over:(S.Phase_type.erlang 2 10.0)
          ()
      in
      S.Polling.to_ctmdp
        (S.Polling.create ~loss_penalty:0.5
           [ queue 0.25 weight; queue 0.4 (2.0 *. weight) ])

type answer = {
  gain : float;
  actions : int array;
  provenance : Dpm_trace.Provenance.t;
}

let guarded f =
  match f () with
  | v -> v
  | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
  | exception exn -> Error (Printexc.to_string exn)

let of_scenario = function
  | Ok (s : S.Solve.solution) ->
      Ok
        {
          gain = s.S.Solve.gain;
          actions = s.S.Solve.actions;
          provenance = s.S.Solve.provenance;
        }
  | Error e -> Error (Dpm_robust.Error.to_string e)

let of_optimize (s : Optimize.solution) =
  Ok
    {
      gain = s.Optimize.gain;
      actions = s.Optimize.actions;
      provenance = s.Optimize.provenance;
    }

(* Layer time the traced pass adds up, beyond the program's timers. *)
type acc = {
  mutable build : float;
  mutable validate : float;
  mutable fingerprint : float;
  mutable analytic : float;
  mutable replayed : float;
}

(* The paper system goes through [Optimize.solve]; the scenario
   families are built by the benchmark and handed to
   [Dpm_scenario.Solve].  A traced op also replays the layers a front
   door hides, on the same inputs. *)
let solve ~traced acc (job : Gen.job) =
  guarded (fun () ->
      match job with
      | Gen.Sys { q; weight; lam_f; mu_f } ->
          let sys = C.span "build" (fun () -> system ~q ~lam_f ~mu_f) in
          let s = C.span "optimize" (fun () -> Optimize.solve ~weight sys) in
          if traced then begin
            (* [Optimize.solve] hides build, fingerprint and analytic. *)
            let model, b = C.replay (fun () -> Sys_model.to_ctmdp sys ~weight) in
            let (), f = C.replay (fun () -> C.fingerprint model) in
            let _, a =
              C.replay (fun () -> Analytic.of_action_array sys s.Optimize.actions)
            in
            acc.build <- acc.build +. b;
            acc.fingerprint <- acc.fingerprint +. f;
            acc.analytic <- acc.analytic +. a;
            acc.replayed <- acc.replayed +. b +. f +. a
          end;
          of_optimize s
      | _ ->
          let model = C.span "build" (fun () -> scenario_model job) in
          let r = C.span "solve" (fun () -> S.Solve.solve model) in
          if traced then begin
            (* [Dpm_scenario.Solve] validates through [Validate.model],
               which the program's [robust.validate_seconds] timer does
               not cover: replay it, and the fingerprints. *)
            let _, v = C.replay (fun () -> Dpm_robust.Validate.model model) in
            let (), f = C.replay (fun () -> C.fingerprint model) in
            acc.validate <- acc.validate +. v;
            acc.fingerprint <- acc.fingerprint +. f;
            acc.replayed <- acc.replayed +. v +. f
          end;
          of_scenario r)

(* Policy iteration cycles on this paper-SP model and gives up after
   1000 iterations; every weight at or below about 0.6 risks the same.
   The run reports whether it still does, outside the timed phase and
   the op counts, so the fix shows and design-sweep's weight floor
   ([Gen.weight_lo]) can go back down to 0.2. *)
let known_defect () =
  let sys =
    Sys_model.create
      ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:12 ~arrival_rate:0.15219046446687456 ()
  in
  match Optimize.solve ~weight:0.19722228378263976 sys with
  | _ -> "known defect (PI cycling, Q=12 w=0.1972 rate=0.1522): fixed"
  | exception Failure msg ->
      Printf.sprintf "known defect (PI cycling, Q=12 w=0.1972 rate=0.1522): %s" msg

let route (p : Dpm_trace.Provenance.t) =
  if p.Dpm_trace.Provenance.sparse_fallbacks > 0 then "fallback"
  else if p.Dpm_trace.Provenance.eval_path = "sparse" then "sparse"
  else "dense"

(* The p50/tail populations: models below the dense/sparse switch,
   and models at or above it, whose evaluations try the sparse path
   (accepted or falling back to dense). *)
let population = function "dense" -> "dense" | _ -> "sparse-path"

(* [Policy_iteration]'s [Auto] evaluation takes the sparse path from
   this many states on, so a job's population follows from its size
   alone — which the tests use to place p50 and the tail without a
   run. *)
let sparse_from = 192

let expected_population job =
  if Dpm_ctmdp.Model.num_states (scenario_model job) >= sparse_from then
    "sparse-path"
  else "dense"

(* Answers the GTH check has passed, by job.  A later pass of the run
   whose answer to a job is bit-identical needs no second check, which
   keeps verification from costing each pass a second or more. *)
let verified : (string, float * int array) Hashtbl.t = Hashtbl.create 256

let run ~traced ~seed ~ops () =
  Dpm_cache.Solve_cache.clear ();
  let setup () = Gen.design_jobs ~seed ~n:ops in
  let jobs, before = C.setup_before setup in
  let n = Array.length jobs in
  let results = Array.make n (Error "not run") in
  let latencies = Array.make n 0.0 in
  let reg = Dpm_obs.Metrics.create () in
  let acc =
    {
      build = 0.0;
      validate = 0.0;
      fingerprint = 0.0;
      analytic = 0.0;
      replayed = 0.0;
    }
  in
  (* Job generation takes a fraction of a millisecond, so one moment's
     machine speed would set it: it is also timed once every
     [setup_every] ops, outside op time, to spread its samples over
     the run as the ops are spread. *)
  let setup_every = max 1 (n / 20) in
  let during = ref [] in
  let gc0 = C.gc_mark () in
  let t_start = C.now () in
  let body () =
    Array.iteri
      (fun k job ->
        let replayed = acc.replayed in
        let t0 = C.now () in
        results.(k) <- C.span "op" (fun () -> solve ~traced acc job);
        latencies.(k) <- C.now () -. t0 -. (acc.replayed -. replayed);
        if k mod setup_every = 0 then begin
          let t1 = C.now () in
          ignore (setup () : Gen.job array);
          during := (C.now () -. t1) :: !during
        end)
      jobs
  in
  C.observe ~traced reg body;
  let wall_s =
    C.now () -. t_start -. acc.replayed -. List.fold_left ( +. ) 0.0 !during
  in
  let gc_alloc_mb_per_op, gc_major_per_op = C.gc_per_op ~from:gc0 ~ops:n in
  let peak_rss_mb = C.peak_rss_mb () in
  (* Verification, after the timed phase. *)
  let failures = C.failures () in
  let routes = Array.make n "failed" in
  Array.iteri
    (fun k job ->
      match results.(k) with
      | Error e -> C.fail failures "op %d (%s): %s" k (Gen.job_to_string job) e
      | Ok a -> (
          routes.(k) <- route a.provenance;
          let origin = a.provenance.Dpm_trace.Provenance.origin in
          if origin = Dpm_trace.Provenance.Cache_hit then
            C.fail failures "op %d (%s): read a cache hit" k
              (Gen.job_to_string job)
          else
            let key = Gen.job_to_string job in
            if Hashtbl.find_opt verified key <> Some (a.gain, a.actions) then
              match S.Solve.stationary_gain (scenario_model job) ~actions:a.actions with
              | g when C.rel_diff g a.gain <= 1e-6 ->
                  Hashtbl.replace verified key (a.gain, a.actions)
              | g ->
                  C.fail failures "op %d (%s): gain %.12g vs GTH %.12g" k key
                    a.gain g
              | exception exn ->
                  C.fail failures "op %d (%s): GTH check raised %s" k key
                    (Printexc.to_string exn)))
    jobs;
  let setup_s = C.setup_median setup ~earlier:(before @ !during) in
  let families =
    Array.map (fun j -> Gen.families.(Gen.family_index j)) jobs
  in
  let labels = Array.map population routes in
  let layers =
    if not traced then []
    else
      let solver = C.solver_layers reg in
      let get name = List.assoc name solver in
      let op_s = Array.fold_left ( +. ) 0.0 latencies in
      let build = C.timer reg "span.op.build" +. acc.build in
      let validate = get "validate.s" +. acc.validate in
      [
        ("trace.op_s", op_s);
        ("build.s", build);
        ("validate.s", validate);
        ("fingerprint.s", acc.fingerprint);
        ("analytic.s", acc.analytic);
        ( "unattributed_s",
          op_s -. build -. validate -. acc.fingerprint -. get "pi.eval_s"
          -. get "pi.improve_s" -. acc.analytic );
      ]
      @ List.remove_assoc "validate.s" solver
  in
  {
    C.attempted = n;
    failed = failures.C.count;
    failures = List.rev failures.C.lines;
    setup_s;
    wall_s;
    latencies;
    labels;
    populations = C.tally ~order:[ "dense"; "sparse-path" ] labels;
    counts =
      [
        C.counts_line "families"
          (C.tally ~order:(Array.to_list Gen.families) families);
        C.counts_line "routes"
          (C.tally ~order:[ "dense"; "sparse"; "fallback"; "failed" ] routes);
        known_defect ();
      ];
    peak_rss_mb;
    gc_alloc_mb_per_op;
    gc_major_per_op;
    layers;
  }
