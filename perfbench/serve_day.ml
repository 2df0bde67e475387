(* serve-day: the policy daemon under a drifting day.  An engine serves
   the paper SP at Q=40 with the default estimator, cooldown and rate
   quantization, checkpointing every 1024 arrivals.  One round offers
   and pumps 256 arrivals and answers 16 queries; one op is 4 rounds.
   After the first day nearly every drift-triggered re-solve is a cache
   hit, so the hit path — model build, fingerprint, analytic metrics —
   is what this workload times; design-sweep never reads the cache.

   A single round is about 5 ms, and the host stalls the process for
   tens of milliseconds several times a pass.  An op of 4 rounds, about
   20 ms, is stretched by a stall in one pass but seldom in all six, so
   the fastest pass keeps stalls out of the tail; a pass holds about
   200 ops. *)

open Dpm_core
module E = Dpm_serve.Engine
module C = Common

let queue_capacity = 40
let weight = 1.0
let rounds_per_op = 4
let arrivals_per_round = 256
let queries_per_round = 16
let arrivals_per_op = rounds_per_op * arrivals_per_round
let queries_per_op = rounds_per_op * queries_per_round
let checkpoint_every = 1024

(* Every pass serves at least two simulated days, about 4 s of work, so
   a run makes six passes (see [Common.combine]) where fleet-day makes
   eight.  About 40 ops per second on a 2-vCPU VM. *)
let passes = 6

let ops_per_second = 40

let two_days_ops =
  let arrivals =
    2.0 *. float_of_int Gen.serve_levels *. Gen.serve_level_s
    *. Gen.serve_base_rate
  in
  int_of_float (Float.ceil (arrivals /. float_of_int arrivals_per_op))

let ops_for ~seconds = max two_days_ops (seconds * ops_per_second / passes)

let system () =
  Sys_model.create
    ~sp:(Paper_instance.service_provider ())
    ~queue_capacity ~arrival_rate:Gen.serve_base_rate ()

type inputs = {
  engine : E.t;
  sys : Sys_model.t;
  states : Sys_model.state array;
  arrivals : float array;
  queries : int array;
}

(* A cold engine: empty cache, no checkpoint on disk, no fault plan
   (DPM_FAULTS is ignored), no deadline. *)
let setup ~seed ~ops ~checkpoint () =
  let sys = system () in
  let states = Sys_model.states sys in
  let arrivals = Gen.serve_arrivals ~seed ~count:(ops * arrivals_per_op) in
  let queries =
    Gen.serve_queries ~seed ~count:(ops * queries_per_op)
      ~states:(Array.length states)
  in
  Dpm_cache.Solve_cache.clear ();
  if Sys.file_exists checkpoint then Sys.remove checkpoint;
  let engine =
    E.create ~weight ~faults:(Dpm_robust.Fault.plan []) ~checkpoint_path:checkpoint
      ~checkpoint_every sys
  in
  { engine; sys; states; arrivals; queries }

type acc = {
  mutable build : float;
  mutable fingerprint : float;
  mutable analytic : float;
  mutable replayed : float;
  mutable resolve_s : float;
  mutable hits : int;
  mutable cold : int;
}

(* After a single-arrival pump that re-solved: read the provenance,
   then replay the hit path on the deployed rate and table.  The caller
   takes all of it out of the op's time. *)
let note_resolve acc (inp : inputs) =
  (match E.last_provenance inp.engine with
  | None -> ()
  | Some p ->
      acc.resolve_s <- acc.resolve_s +. p.Dpm_trace.Provenance.wall_s;
      if p.Dpm_trace.Provenance.origin = Dpm_trace.Provenance.Cache_hit then
        acc.hits <- acc.hits + 1
      else acc.cold <- acc.cold + 1);
  let sys = Sys_model.with_arrival_rate inp.sys (E.deployed_rate inp.engine) in
  let actions = E.deployed_actions inp.engine in
  let model, b = C.replay (fun () -> Sys_model.to_ctmdp sys ~weight) in
  let (), f = C.replay (fun () -> C.fingerprint model) in
  let _, a = C.replay (fun () -> Analytic.of_action_array sys actions) in
  acc.build <- acc.build +. b;
  acc.fingerprint <- acc.fingerprint +. f;
  acc.analytic <- acc.analytic +. a

(* One op: [rounds_per_op] rounds, each offering 256 arrivals and then
   answering 16 queries.  Every arrival is pumped on its own: [pump]
   takes queued arrivals one at a time anyway, so the engine ends in
   the same state as with one pump a round, and the traced pass sees
   each re-solve as it happens and replays it there. *)
let op ~traced acc inp answers k =
  let e = inp.engine in
  for r = 0 to rounds_per_op - 1 do
    let base = (k * arrivals_per_op) + (r * arrivals_per_round) in
    for i = 0 to arrivals_per_round - 1 do
      let at = inp.arrivals.(base + i) in
      ignore (C.span "offer" (fun () -> E.offer_arrival e ~at) : bool);
      let before = if traced then (E.stats e).E.resolves else 0 in
      C.span "pump" (fun () -> E.pump e);
      if traced && (E.stats e).E.resolves > before then begin
        let t0 = C.now () in
        note_resolve acc inp;
        acc.replayed <- acc.replayed +. (C.now () -. t0)
      end
    done;
    let base = (k * queries_per_op) + (r * queries_per_round) in
    for j = 0 to queries_per_round - 1 do
      let x = inp.states.(inp.queries.(base + j)) in
      answers.(base + j) <- C.span "decide" (fun () -> E.decide e x)
    done
  done

(* Op latency is close to linear in the op's re-solves: about 3.6 ms a
   cache hit, and a cold re-solve about one hit more.  An op holds some
   9 re-solves, spread smoothly around that, so ops with a cold
   re-solve (the first simulated day) are not a separate latency mode:
   the p50/tail rule reads one population of re-solving ops, after the
   rare op with no re-solve at all. *)
let populations = [ "idle"; "resolving" ]

let run ~traced ~seed ~ops ~checkpoint () =
  let inp, before = C.setup_before (setup ~seed ~ops ~checkpoint) in
  let e = inp.engine in
  let answers = Array.make (ops * queries_per_op) (-1) in
  let latencies = Array.make ops 0.0 in
  let resolves = Array.make ops 0 and cold = Array.make ops false in
  let failures = C.failures () in
  let reg = Dpm_obs.Metrics.create () in
  let acc =
    {
      build = 0.0;
      fingerprint = 0.0;
      analytic = 0.0;
      replayed = 0.0;
      resolve_s = 0.0;
      hits = 0;
      cold = 0;
    }
  in
  let gc0 = C.gc_mark () in
  let t_start = C.now () in
  let body () =
    for k = 0 to ops - 1 do
      let s0 = E.stats e and c0 = Dpm_cache.Solve_cache.stats () in
      let replayed = acc.replayed in
      let t0 = C.now () in
      C.span "op" (fun () -> op ~traced acc inp answers k);
      latencies.(k) <- C.now () -. t0 -. (acc.replayed -. replayed);
      (* Classify the op, outside its timing. *)
      let s1 = E.stats e and c1 = Dpm_cache.Solve_cache.stats () in
      let misses = c1.Dpm_cache.Lru.misses - c0.Dpm_cache.Lru.misses in
      resolves.(k) <- s1.E.resolves - s0.E.resolves;
      cold.(k) <- misses > 0;
      let drops = s1.E.queue_drops - s0.E.queue_drops in
      let failed = s1.E.resolve_failures - s0.E.resolve_failures in
      if drops > 0 || failed > 0 then
        C.fail failures "op %d: %d queue drops, %d failed re-solves" k drops failed
    done
  in
  C.observe ~traced reg body;
  let wall_s = C.now () -. t_start -. acc.replayed in
  let gc_alloc_mb_per_op, gc_major_per_op = C.gc_per_op ~from:gc0 ~ops in
  let peak_rss_mb = C.peak_rss_mb () in
  (* Verification, after the timed phase: every answer is a legal
     action of its state, and the deployed table is what a fresh cold
     solve at the deployed rate gives. *)
  for k = 0 to ops - 1 do
    let bad = ref 0 in
    for j = k * queries_per_op to ((k + 1) * queries_per_op) - 1 do
      let x = inp.states.(inp.queries.(j)) in
      if not (List.mem answers.(j) (Sys_model.valid_actions inp.sys x)) then incr bad
    done;
    if !bad > 0 then C.fail failures "op %d: %d answers not in valid_actions" k !bad
  done;
  let stats = E.stats e in
  let rate = E.deployed_rate e in
  Dpm_cache.Solve_cache.clear ();
  let fresh =
    Optimize.solve ~weight (Sys_model.with_arrival_rate inp.sys rate)
  in
  if fresh.Optimize.actions <> E.deployed_actions e then
    C.fail failures "final table at rate %.17g differs from a cold solve" rate;
  let setup_s = C.setup_median (setup ~seed ~ops ~checkpoint) ~earlier:before in
  if Sys.file_exists checkpoint then Sys.remove checkpoint;
  let layers =
    if not traced then []
    else
      let solver = C.solver_layers reg in
      let get name = List.assoc name solver in
      let op_s = Array.fold_left ( +. ) 0.0 latencies in
      let offer = C.timer reg "span.op.offer" in
      let decide = C.timer reg "span.op.decide" in
      [
        ("trace.op_s", op_s);
        ("build.s", acc.build);
        ("fingerprint.s", acc.fingerprint);
        ("analytic.s", acc.analytic);
        ("serve.offer_s", offer);
        ("serve.pump_s", C.timer reg "span.op.pump");
        ("serve.decide_s", decide);
        ("serve.resolve_s", acc.resolve_s);
        ("serve.resolve_hits", float_of_int acc.hits);
        ("serve.resolve_cold", float_of_int acc.cold);
        ("serve.resolve_failures", float_of_int stats.E.resolve_failures);
        ("serve.queue_drops", float_of_int stats.E.queue_drops);
        ("serve.checkpoints", float_of_int stats.E.checkpoints);
        ( "unattributed_s",
          op_s -. offer -. decide -. acc.build -. acc.fingerprint -. acc.analytic
          -. get "pi.eval_s" -. get "pi.improve_s" );
      ]
      @ solver
  in
  let kinds =
    Array.init ops (fun k ->
        if cold.(k) then "cold" else if resolves.(k) > 0 then "hit" else "none")
  in
  let labels =
    Array.map (fun kind -> if kind = "none" then "idle" else "resolving") kinds
  in
  {
    C.attempted = ops;
    failed = failures.C.count;
    failures = List.rev failures.C.lines;
    setup_s;
    wall_s;
    latencies;
    labels;
    populations = C.tally ~order:populations labels;
    counts =
      [
        C.counts_line "ops by re-solve" (C.tally ~order:[ "none"; "hit"; "cold" ] kinds);
        (let sorted = Array.copy resolves in
         Array.sort compare sorted;
         Printf.sprintf "re-solves per op: min=%d median=%d max=%d" sorted.(0)
           sorted.(ops / 2) sorted.(ops - 1));
        Printf.sprintf "engine: resolves=%d failures=%d drops=%d checkpoints=%d"
          stats.E.resolves stats.E.resolve_failures stats.E.queue_drops
          stats.E.checkpoints;
      ];
    peak_rss_mb;
    gc_alloc_mb_per_op;
    gc_major_per_op;
    layers;
  }
