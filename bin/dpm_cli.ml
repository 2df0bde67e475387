(* Command-line interface to the CTMDP dynamic power management
   library.

     dpm_cli info        -- show a device preset
     dpm_cli check       -- validate a model (all findings, not just
                            the first); under DPM_FAULTS, a fault
                            drill that must be caught
     dpm_cli solve       -- optimize a policy for a weight
     dpm_cli sweep       -- trace the power/delay trade-off as CSV
     dpm_cli constrained -- minimum power under a delay bound
     dpm_cli simulate    -- event-driven simulation of a controller
     dpm_cli adapt       -- adaptive vs static vs oracle on a drifting
                            workload (online re-optimization)
     dpm_cli serve       -- supervised policy daemon: line protocol on
                            stdin/stdout, checkpoint/restore, degraded
                            modes (Dpm_serve)
     dpm_cli dot         -- DOT graphs of the SP / SQ / SYS chains
                            (regenerates Figures 1 and 2 of the paper)
     dpm_cli scenario    -- the scenario library: phase-type service,
                            K-queue polling, dynamic batching
                            (Dpm_scenario; see MODELING.md)

   Exit codes: 0 success; 1 generic failure (bad flags, unknown
   device, ...); 2 infeasible constrained problem; then one code per
   Dpm_robust.Error class: 3 deadline-exceeded, 4 singular,
   5 nonconvergent, 6 cycling, 7 invalid-model, 8 non-finite. *)

open Cmdliner
open Dpm_core

(* --- shared arguments ---------------------------------------------- *)

let device_arg =
  let doc = "Device preset: paper, disk, wlan, or cpu." in
  Arg.(value & opt string "paper" & info [ "device"; "d" ] ~docv:"NAME" ~doc)

let rate_arg =
  let doc = "Request arrival rate (requests per second)." in
  Arg.(value & opt float (1.0 /. 6.0) & info [ "rate"; "r" ] ~docv:"LAMBDA" ~doc)

let capacity_arg =
  let doc = "Queue capacity Q." in
  Arg.(value & opt int 5 & info [ "capacity"; "q" ] ~docv:"Q" ~doc)

let weight_arg =
  let doc = "Delay weight w in Cost = C_pow + w * C_sq (Eqn. 3.1)." in
  Arg.(value & opt float 1.0 & info [ "weight"; "w" ] ~docv:"W" ~doc)

let seed_arg =
  let doc = "Simulation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let requests_arg =
  let doc = "Number of requests to simulate." in
  Arg.(value & opt int 50_000 & info [ "requests"; "n" ] ~docv:"N" ~doc)

(* Global parallelism knob: sizes the Dpm_par domain pool used by
   replicated simulation and the weight/rate sweep grids.  Results are
   bit-identical at any value; only wall clock changes. *)
let domains_arg =
  let doc =
    "Number of OCaml domains (worker threads) for parallel sections: \
     simulation replications and optimization sweeps.  Defaults to \
     $(b,DPM_DOMAINS) or 1 (sequential).  The output is identical \
     whatever the value; only wall-clock time changes."
  in
  Arg.(value & opt (some int) None & info [ "domains"; "j" ] ~docv:"D" ~doc)

let apply_domains = function
  | None -> ()
  | Some d when d >= 1 -> Dpm_par.set_default_domains d
  | Some d ->
      prerr_endline (Printf.sprintf "--domains must be >= 1, got %d" d);
      exit 1

(* Global cache knob: capacity of the Dpm_cache solver-result cache
   shared by every solve of the command (sweeps hit it on repeated or
   structurally identical grid points). *)
let cache_arg =
  let doc =
    "Capacity of the policy-iteration result cache, in entries.  Repeated \
     solves of a structurally identical model (same states, actions, rates, \
     costs) are served from the cache.  $(b,0) disables caching.  Defaults \
     to $(b,DPM_CACHE) or 512."
  in
  Arg.(value & opt (some int) None & info [ "cache" ] ~docv:"N" ~doc)

let apply_cache = function
  | None -> ()
  | Some c when c >= 0 -> Dpm_cache.Solve_cache.set_capacity c
  | Some c ->
      prerr_endline (Printf.sprintf "--cache must be >= 0, got %d" c);
      exit 1

(* Global observability flag: when given, a Dpm_obs registry is active
   for the whole command (solver iterations, LU factorizations,
   simulator event throughput, spans) and is rendered after the
   command's normal output. *)
let metrics_arg =
  let doc =
    "Collect runtime metrics (solver iterations, LU factorizations, \
     simulator event throughput, wall-clock spans) and print them after the \
     command's output.  $(docv) is table, json, or prometheus; bare \
     $(b,--metrics) means table."
  in
  Arg.(
    value
    & opt ~vopt:(Some "table") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc =
    "Also write the collected metrics to $(docv) (in the $(b,--metrics) \
     format, or json when $(b,--metrics) is absent).  Implies metrics \
     collection even without $(b,--metrics)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let render_of_format = function
  | "table" -> Dpm_obs.Report.to_table
  | "json" -> Dpm_obs.Report.to_json
  | "prometheus" | "prom" -> Dpm_obs.Report.to_prometheus
  | other ->
      prerr_endline
        (Printf.sprintf
           "unknown metrics format %S (try: table, json, prometheus)" other);
      exit 1

let with_metrics format out run =
  match (format, out) with
  | None, None -> run ()
  | _ ->
      (* Validate formats up front so a typo fails before the work. *)
      let stdout_render = Option.map render_of_format format in
      let file_render =
        render_of_format (Option.value format ~default:"json")
      in
      let registry = Dpm_obs.Metrics.create () in
      Fun.protect
        ~finally:(fun () ->
          Dpm_obs.Probe.set_active None;
          (match stdout_render with
          | Some render ->
              print_newline ();
              print_string (render registry)
          | None -> ());
          match out with
          | Some file ->
              let oc = open_out file in
              output_string oc (file_render registry);
              close_out oc
          | None -> ())
        (fun () ->
          Dpm_obs.Probe.set_active (Some registry);
          run ())

(* Global timeline tracing: when given, a Dpm_trace recorder is active
   for the whole command; at exit its events are written as Chrome
   trace-event JSON (open in Perfetto or chrome://tracing). *)
let trace_arg =
  let doc =
    "Record a structured event timeline (spans, cache hits, fault \
     injections, online re-solves with provenance) and write it to $(docv) \
     as Chrome trace-event JSON, loadable in Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace file run =
  match file with
  | None -> run ()
  | Some file ->
      let recorder = Dpm_trace.Recorder.create () in
      Fun.protect
        ~finally:(fun () ->
          Dpm_trace.Recorder.set_active None;
          let oc = open_out file in
          output_string oc (Dpm_trace.Chrome.to_json recorder);
          close_out oc)
        (fun () ->
          Dpm_trace.Recorder.set_active (Some recorder);
          run ())

(* Every command takes the runtime bundle (metrics, metrics file, trace
   file, domains, cache) through one term so the observability
   registry, the timeline recorder, the domain pool, and the solver
   cache are set up the same way everywhere. *)
let with_runtime (metrics, metrics_out, trace, domains, cache) run =
  apply_domains domains;
  apply_cache cache;
  with_trace trace @@ fun () -> with_metrics metrics metrics_out run

let runtime_args =
  Term.(
    const (fun metrics metrics_out trace domains cache ->
        (metrics, metrics_out, trace, domains, cache))
    $ metrics_arg $ metrics_out_arg $ trace_arg $ domains_arg $ cache_arg)

let build_system device rate capacity =
  match Presets.find device with
  | sp -> Ok (Sys_model.create ~sp ~queue_capacity:capacity ~arrival_rate:rate ())
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown device %S (try: %s)" device
           (String.concat ", " (List.map fst (Presets.all ()))))

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* --- robustness hooks ------------------------------------------------ *)

let no_validate_arg =
  let doc =
    "Skip the pre-solve model validation pass (the Section III \
     action-validity constraints, generator invariants, unichain \
     reachability)."
  in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget for the solve, in seconds.  The solver loops are \
     aborted at the first iteration past the budget and the command exits \
     with code 3."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let pp_diag d = Format.eprintf "%a@." Dpm_robust.Diagnostic.pp d

(* Pre-solve validation: report every finding (warnings included) on
   stderr; error-severity findings are fatal unless --no-validate,
   exiting with the invalid-model code of the error-class contract
   below. *)
let validate_or_die sys ~no_validate =
  if not no_validate then begin
    let diags = Dpm_robust.Validate.system sys in
    List.iter pp_diag diags;
    match Dpm_robust.Diagnostic.errors diags with
    | [] -> ()
    | errs ->
        prerr_endline "model validation failed (use --no-validate to bypass)";
        exit (Dpm_robust.Error.exit_code (Dpm_robust.Error.Invalid_model errs))
  end

(* The exit-code contract (also in the README): every solver failure
   maps through Dpm_robust.Error to one code per error class —
   3 deadline-exceeded, 4 singular, 5 nonconvergent, 6 cycling,
   7 invalid-model, 8 non-finite — with 1 reserved for generic CLI
   failures and 2 for an infeasible constrained problem.  Exceptions
   the taxonomy refuses (Out_of_memory, ...) keep unwinding out of
   Dpm_robust.Guard.run. *)
let die_on_solver_error e =
  Format.eprintf "solve aborted: %a@." Dpm_robust.Error.pp e;
  exit (Dpm_robust.Error.exit_code e)

(* --- info ----------------------------------------------------------- *)

let info_cmd =
  let run runtime device rate capacity =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    Format.printf "device %s: lambda=%g, Q=%d, |X|=%d states@.%a@." device
      (Sys_model.arrival_rate sys) (Sys_model.queue_capacity sys)
      (Sys_model.num_states sys) Service_provider.pp (Sys_model.sp sys)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show a device preset and its composed state space.")
    Term.(const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg)

(* --- check ----------------------------------------------------------- *)

(* Fault kinds that corrupt the model's choice table — the ones a
   validation drill must catch (Zero_row/Nan_entry/Duplicate_row hit
   matrices, Stall hits guards; they leave the choice table intact). *)
let model_level_fault = function
  | Dpm_robust.Fault.Nan_rate | Negative_rate | Nan_cost | Empty_choice
  | Bad_target | Duplicate_action ->
      true
  | Zero_row | Nan_entry | Duplicate_row | Stall -> false

let check_cmd =
  let run runtime device rate capacity weight =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    let n = Sys_model.num_states sys in
    match Dpm_robust.Fault.of_env () with
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    | Some plan ->
        (* Fault drill: corrupt the raw (pre-validation) choice table
           and demand that the validation pass rejects it.  A drill
           that lets a model-level fault through exits nonzero. *)
        let kinds =
          String.concat ","
            (List.map Dpm_robust.Fault.kind_to_string
               plan.Dpm_robust.Fault.kinds)
        in
        let raw = Sys_model.choices sys ~weight in
        let corrupted =
          Dpm_robust.Fault.corrupt_choices plan ~num_states:n raw
        in
        (match Dpm_robust.Validate.model_r ~num_states:n corrupted with
        | Error e ->
            Format.printf "fault drill [%s]: rejected as expected@.%a@." kinds
              Dpm_robust.Error.pp e
        | Ok _ ->
            if List.exists model_level_fault plan.Dpm_robust.Fault.kinds then begin
              Format.eprintf
                "fault drill [%s]: corrupted model escaped validation@." kinds;
              exit 1
            end
            else
              Format.printf
                "fault drill [%s]: no model-level faults in plan; model valid@."
                kinds)
    | None -> (
        let diags = Dpm_robust.Validate.system sys in
        List.iter (fun d -> Format.printf "%a@." Dpm_robust.Diagnostic.pp d) diags;
        match Dpm_robust.Diagnostic.errors diags with
        | [] ->
            Format.printf
              "ok: %s (lambda=%g, Q=%d, |X|=%d): Section III action \
               constraints, generator invariants and unichain reachability \
               all hold (%d warning%s)@."
              device rate capacity n
              (List.length diags)
              (if List.length diags = 1 then "" else "s")
        | errs ->
            Format.eprintf "check failed: %d error finding%s@."
              (List.length errs)
              (if List.length errs = 1 then "" else "s");
            exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a device model: the paper's Section III action-validity \
          constraints, generator invariants (finite nonnegative rates, \
          in-range targets), and unichain reachability.  All violations are \
          reported, not just the first.  With $(b,DPM_FAULTS) set (e.g. \
          $(b,nan-rate,empty-choice)), runs a fault drill instead: the \
          model is deliberately corrupted and the command fails unless \
          validation catches it.")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ weight_arg)

(* --- solve ----------------------------------------------------------- *)

let print_solution sys (sol : Optimize.solution) =
  Format.printf "weight w = %g, policy iteration converged in %d sweeps@."
    sol.Optimize.weight sol.Optimize.iterations;
  Format.printf "gain (average weighted cost) = %.6f@." sol.Optimize.gain;
  Format.printf "%a@." Analytic.pp sol.Optimize.metrics;
  Format.printf "policy (rows: SP mode, '>' rows: transfer states):@.%s"
    (Policy_export.table sys (Optimize.action_of sys sol))

let provenance_arg =
  let doc =
    "After the solution, print its solve provenance as one JSON line: model \
     fingerprint, method and evaluation path, iterations, final residual, \
     cache origin (cold / warm / cache_hit), robustness retries, and \
     wall-clock time."
  in
  Arg.(value & flag & info [ "provenance" ] ~doc)

let solve_cmd =
  let run runtime device rate capacity weight no_validate deadline provenance =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    validate_or_die sys ~no_validate;
    match
      Dpm_robust.Guard.run ~stage:"solve" ?deadline_s:deadline (fun guard ->
          Optimize.solve ~weight ~guard sys)
    with
    | Ok sol ->
        print_solution sys sol;
        if provenance then
          print_endline
            (Dpm_trace.Provenance.to_json sol.Optimize.provenance)
    | Error e -> die_on_solver_error e
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Optimize the power-management policy for a given delay weight.")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ weight_arg $ no_validate_arg $ deadline_arg $ provenance_arg)

(* --- sweep ----------------------------------------------------------- *)

let weights_arg =
  let doc =
    "Comma-separated weight ladder to sweep instead of the default 20-point \
     geometric ladder from 0.1 to 500.  Repeated weights are legal and hit \
     the solver cache (see $(b,--cache-stats))."
  in
  Arg.(
    value
    & opt (some (list float)) None
    & info [ "weights" ] ~docv:"W1,W2,..." ~doc)

let cache_stats_arg =
  let doc =
    "After the CSV, print the solver-cache counters (hits, misses, \
     evictions, hit ratio) on stderr."
  in
  Arg.(value & flag & info [ "cache-stats" ] ~doc)

let sweep_cmd =
  let run runtime device rate capacity no_validate weights deadline cache_stats
      =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    validate_or_die sys ~no_validate;
    let weights = Option.value weights ~default:Optimize.default_weights in
    let guard = Dpm_robust.Guard.of_deadline deadline in
    (* Per-point failure containment: failed grid points are dropped
       from the CSV; the rest of the frontier still prints.  Only a
       fully failed sweep is fatal. *)
    let results = Optimize.sweep_r ~guard sys ~weights in
    let ok =
      List.filter_map (fun (_, r) -> Result.to_option r) results
    in
    let failures =
      List.filter_map
        (fun (w, r) -> match r with Error exn -> Some (w, exn) | Ok _ -> None)
        results
    in
    (* Each distinct failure is emitted exactly once, with every weight
       it hit — a deadline tripping mid-grid fails all remaining points
       with the same error and must not repeat per point.  Deadline
       signals are grouped by budget (their elapsed field necessarily
       differs per point). *)
    let failure_label = function
      | Dpm_robust.Error.Deadline_signal { budget_s; _ } ->
          Printf.sprintf "deadline of %gs exceeded" budget_s
      | exn -> Printexc.to_string exn
    in
    let groups =
      List.fold_left
        (fun acc (w, exn) ->
          let msg = failure_label exn in
          match List.assoc_opt msg acc with
          | Some ws ->
              ws := w :: !ws;
              acc
          | None -> acc @ [ (msg, ref [ w ]) ])
        [] failures
    in
    List.iter
      (fun (msg, ws) ->
        let ws = List.rev !ws in
        Format.eprintf "# %d weight%s failed (%s): %s@." (List.length ws)
          (if List.length ws = 1 then "" else "s")
          (String.concat ", " (List.map (Printf.sprintf "%g") ws))
          msg)
      groups;
    let deadline_hit =
      List.exists
        (fun (_, exn) ->
          match exn with
          | Dpm_robust.Error.Deadline_signal _ -> true
          | _ -> false)
        failures
    in
    if ok = [] then begin
      prerr_endline "sweep: every grid point failed";
      (* Deadline keeps precedence (the historical sweep contract);
         otherwise the earliest failure picks the class code. *)
      if deadline_hit then exit 3
      else
        exit
          (match failures with
          | (_, exn) :: _ -> (
              match Dpm_robust.Error.of_exn exn with
              | Some e -> Dpm_robust.Error.exit_code e
              | None -> 1)
          | [] -> 1)
    end;
    Printf.printf "weight,power_w,waiting_requests,waiting_time_s,loss_probability\n";
    List.iter
      (fun (sol : Optimize.solution) ->
        let m = sol.Optimize.metrics in
        Printf.printf "%g,%.6f,%.6f,%.6f,%.8f\n" sol.Optimize.weight
          m.Analytic.power m.Analytic.avg_waiting_requests
          m.Analytic.avg_waiting_time m.Analytic.loss_probability)
      (Optimize.pareto ok);
    if cache_stats then begin
      let s = Dpm_cache.Solve_cache.stats () in
      Format.eprintf
        "# cache: capacity=%d size=%d hits=%d misses=%d evictions=%d \
         hit_ratio=%.3f@."
        s.Dpm_cache.Lru.capacity s.Dpm_cache.Lru.size s.Dpm_cache.Lru.hits
        s.Dpm_cache.Lru.misses s.Dpm_cache.Lru.evictions
        (Dpm_cache.Solve_cache.hit_ratio ())
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Trace the Pareto power/delay curve over a weight ladder (CSV).")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ no_validate_arg $ weights_arg $ deadline_arg $ cache_stats_arg)

(* --- constrained ------------------------------------------------------ *)

let constrained_cmd =
  let bound_arg =
    let doc = "Upper bound on the average number of waiting requests." in
    Arg.(value & opt float 1.0 & info [ "max-waiting"; "b" ] ~docv:"L" ~doc)
  in
  let exact_arg =
    let doc =
      "Solve exactly by linear programming over occupation measures        (Section IV); the optimum may randomize in one state."
    in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run runtime device rate capacity bound exact no_validate =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    validate_or_die sys ~no_validate;
    if exact then begin
      match Optimize.constrained_exact sys ~max_waiting_requests:bound with
      | None ->
          prerr_endline "infeasible: no stationary policy meets the bound";
          exit 2
      | Some r ->
          Format.printf
            "exact LP optimum (shadow price lambda* = %g):@.%a@."
            r.Optimize.lagrange_multiplier Analytic.pp r.Optimize.metrics;
          let sp = Sys_model.sp sys in
          Array.iteri
            (fun k dist ->
              let x = Sys_model.state_of_index sys k in
              match dist with
              | [ (a, _) ] ->
                  Format.printf "  %a -> %s@." (Sys_model.pp_state sys) x
                    (Service_provider.name sp a)
              | mixture ->
                  Format.printf "  %a -> {%s}  (randomized)@."
                    (Sys_model.pp_state sys) x
                    (String.concat ", "
                       (List.map
                          (fun (a, p) ->
                            Printf.sprintf "%s: %.4f"
                              (Service_provider.name sp a) p)
                          mixture)))
            r.Optimize.distributions;
          (match r.Optimize.randomized_states with
          | [] -> Format.printf "no randomization needed (hull vertex)@."
          | xs ->
              Format.printf
                "realize with Controller.time_shared between the adjacent                  deterministic policies (%d mixing state%s)@."
                (List.length xs)
                (if List.length xs = 1 then "" else "s"))
    end
    else
      match Optimize.constrained sys ~max_waiting_requests:bound with
      | None ->
          prerr_endline
            "infeasible for deterministic policies (try --exact for the LP              over randomized policies)";
          exit 2
      | Some sol -> print_solution sys sol
  in
  Cmd.v
    (Cmd.info "constrained"
       ~doc:
         "Minimize power subject to a bound on the average queue length           (weight bisection, or the exact LP with --exact).")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ bound_arg $ exact_arg $ no_validate_arg)

(* --- simulate ---------------------------------------------------------- *)

(* The grammar lives next to the workload constructors so the CLI, the
   adapt harness, and the tests all parse the same specs. *)
let workload_of_spec rate spec = Dpm_sim.Workload.of_spec ~rate spec

let controller_of_spec sys spec =
  let fail () =
    Error
      (Printf.sprintf
         "unknown controller %S (try: optimal:<w>, greedy, always-on, n:<N>, \
          timeout:<seconds>)"
         spec)
  in
  match String.split_on_char ':' spec with
  | [ "greedy" ] -> Ok (Dpm_sim.Controller.greedy sys)
  | [ "always-on" ] -> Ok (Dpm_sim.Controller.always_on sys)
  | [ "optimal"; w ] -> (
      match float_of_string_opt w with
      | Some w -> Ok (Dpm_sim.Controller.of_solution sys (Optimize.solve ~weight:w sys))
      | None -> fail ())
  | [ "n"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Dpm_sim.Controller.n_policy sys ~n)
      | Some _ | None -> fail ())
  | [ "timeout"; d ] -> (
      match float_of_string_opt d with
      | Some d when d >= 0.0 -> Ok (Dpm_sim.Controller.timeout sys ~delay:d)
      | Some _ | None -> fail ())
  | _ -> fail ()

let simulate_cmd =
  let controller_arg =
    let doc =
      "Controller: optimal:<w>, greedy, always-on, n:<N>, or \
       timeout:<seconds>."
    in
    Arg.(value & opt string "optimal:1" & info [ "controller"; "c" ] ~docv:"CTL" ~doc)
  in
  let csv_trace_arg =
    let doc =
      "Write a CSV event trace (last 65k events) to this file.  Distinct \
       from the global $(b,--trace), which records the Chrome-format \
       runtime timeline."
    in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "csv-trace" ] ~docv:"FILE" ~doc)
  in
  let csv_server_id_arg =
    let doc =
      "Tag every $(b,--csv-trace) row with this fleet server id (appends a \
       $(b,server) column), so per-server traces from a fleet run can be \
       concatenated into one file.  Without it the CSV shape is unchanged."
    in
    Cmdliner.Arg.(
      value & opt (some int) None & info [ "csv-server-id" ] ~docv:"ID" ~doc)
  in
  let workload_arg =
    let doc =
      "Workload: poisson (at --rate), \
       piecewise:<r1>@<t1>,...,<r_final> (rate r1 until time t1, ..., \
       then r_final), mmpp:<r1>:<r2>:<switch>, trace-file:<path> (one \
       absolute arrival time per line), or intervals-file:<path> (one \
       inter-arrival gap per line)."
    in
    Arg.(value & opt string "poisson" & info [ "workload" ] ~docv:"W" ~doc)
  in
  let replications_arg =
    let doc =
      "Run this many independent replications (seeds derived from --seed by \
       the splitmix64 stream, run on the --domains pool) and print \
       per-replication lines plus a mean +/- 95% CI summary.  \
       Incompatible with --csv-trace."
    in
    Arg.(value & opt int 1 & info [ "replications" ] ~docv:"R" ~doc)
  in
  let run runtime device rate capacity spec workload_spec requests seed
      replications trace_file csv_server_id =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    if replications < 1 then begin
      prerr_endline "--replications must be >= 1";
      exit 1
    end;
    if replications > 1 then begin
      if trace_file <> None then begin
        prerr_endline
          "--csv-trace only applies to a single run (replications=1)";
        exit 1
      end;
      let rs =
        Dpm_sim.Power_sim.replicate ~seed:(Int64.of_int seed) ~n:replications
          ~sys
          ~workload:(fun () -> or_die (workload_of_spec rate workload_spec))
          ~controller:(fun () -> or_die (controller_of_spec sys spec))
          ~stop:(Dpm_sim.Power_sim.Requests requests)
          ()
      in
      List.iteri
        (fun k r -> Format.printf "rep %2d: %a@." (k + 1) Dpm_sim.Power_sim.pp r)
        rs;
      let s = Dpm_sim.Summary.of_results rs in
      Format.printf
        "summary (%d replications): power %a W, waiting %a req, wait time %a \
         s, loss %a@."
        replications Dpm_sim.Summary.pp_estimate s.Dpm_sim.Summary.power
        Dpm_sim.Summary.pp_estimate s.Dpm_sim.Summary.waiting_requests
        Dpm_sim.Summary.pp_estimate s.Dpm_sim.Summary.waiting_time
        Dpm_sim.Summary.pp_estimate s.Dpm_sim.Summary.loss_probability
    end
    else begin
      let controller = or_die (controller_of_spec sys spec) in
      let workload = or_die (workload_of_spec rate workload_spec) in
      let trace = Dpm_sim.Trace.create () in
      let observer =
        match trace_file with
        | Some _ -> Some (Dpm_sim.Trace.observer trace)
        | None -> None
      in
      let r =
        Dpm_sim.Power_sim.run ~seed:(Int64.of_int seed) ?observer ~sys ~workload
          ~controller
          ~stop:(Dpm_sim.Power_sim.Requests requests)
          ()
      in
      (match trace_file with
      | Some file ->
          let oc = open_out file in
          output_string oc (Dpm_sim.Trace.to_csv ?server:csv_server_id trace);
          close_out oc;
          Format.printf "trace: %d events written to %s (%d dropped)@."
            (Dpm_sim.Trace.length trace) file
            (Dpm_sim.Trace.dropped trace)
      | None -> ());
      Format.printf "%a@." Dpm_sim.Power_sim.pp r;
      Format.printf
        "duration %.1f s, generated %d, accepted %d, completed %d, switch \
         energy %.2f J@."
        r.Dpm_sim.Power_sim.duration r.Dpm_sim.Power_sim.generated
        r.Dpm_sim.Power_sim.accepted r.Dpm_sim.Power_sim.completed
        r.Dpm_sim.Power_sim.switch_energy;
      Format.printf "mode residency:";
      Array.iteri
        (fun s f ->
          Format.printf " %s=%.1f%%"
            (Service_provider.name (Sys_model.sp sys) s)
            (100.0 *. f))
        r.Dpm_sim.Power_sim.mode_residency;
      Format.printf "@."
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the event-driven simulator (Section V).")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ controller_arg $ workload_arg $ requests_arg $ seed_arg
      $ replications_arg $ csv_trace_arg $ csv_server_id_arg)

(* --- adapt -------------------------------------------------------------- *)

let adapt_cmd =
  let segments_arg =
    let doc =
      "Drifting workload: comma-separated RATE@UNTIL entries (rate until \
       that time) closed by a bare final RATE, e.g. \
       $(b,0.083@4000,0.333@8000,0.125)."
    in
    Arg.(
      value
      & opt string "0.0833@4000,0.3333@8000,0.125"
      & info [ "segments" ] ~docv:"SPEC" ~doc)
  in
  let horizon_arg =
    let doc = "Simulated seconds per run." in
    Arg.(value & opt float 12_000.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc)
  in
  let window_arg =
    let doc = "Sliding window of the arrival-rate estimator, in gaps." in
    Arg.(value & opt int 50 & info [ "window" ] ~docv:"GAPS" ~doc)
  in
  let cooldown_arg =
    let doc = "Minimum simulated seconds between re-solve attempts." in
    Arg.(value & opt float 150.0 & info [ "cooldown" ] ~docv:"SECONDS" ~doc)
  in
  let resolve_deadline_arg =
    let doc =
      "Wall-clock budget per online re-solve, in seconds.  An expired \
       budget counts as a failed attempt and the incumbent policy stays \
       deployed (the run continues)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "resolve-deadline" ] ~docv:"SECONDS" ~doc)
  in
  let run runtime device rate capacity weight segments_spec horizon window
      cooldown deadline_s seed =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    let segments, final_rate =
      or_die (Dpm_sim.Workload.segments_of_spec segments_spec)
    in
    let c =
      Dpm_adapt.Harness.compare ~seed:(Int64.of_int seed) ~weight ~window
        ~cooldown ?deadline_s ~sys ~segments ~final_rate ~horizon ()
    in
    Format.printf "%a@." Dpm_adapt.Harness.pp c;
    Format.printf "@.per-segment (adaptive):@.";
    Format.printf "%-24s %10s %10s %8s@." "segment" "power(W)" "E[queue]"
      "lost";
    Array.iter
      (fun (s : Dpm_sim.Power_sim.segment) ->
        if s.Dpm_sim.Power_sim.seg_end > s.Dpm_sim.Power_sim.seg_start then
          Format.printf "%-24s %10.4f %10.4f %8d@."
            (Printf.sprintf "[%g, %g)" s.Dpm_sim.Power_sim.seg_start
               s.Dpm_sim.Power_sim.seg_end)
            s.Dpm_sim.Power_sim.seg_power
            s.Dpm_sim.Power_sim.seg_waiting_requests
            s.Dpm_sim.Power_sim.seg_lost)
      c.Dpm_adapt.Harness.adaptive.Dpm_adapt.Harness.result
        .Dpm_sim.Power_sim.segments
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Compare the online-adaptive power manager against the static \
          optimum, the per-segment oracle, and the heuristics on a drifting \
          workload.")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ weight_arg $ segments_arg $ horizon_arg $ window_arg $ cooldown_arg
      $ resolve_deadline_arg $ seed_arg)

(* --- serve -------------------------------------------------------------- *)

let serve_cmd =
  let checkpoint_arg =
    let doc =
      "Checkpoint file.  On startup, a readable checkpoint whose fingerprint \
       matches the configured system restores the deployed policy, health \
       state and estimator; a mismatched or corrupt one pins the safe \
       policy (safe-mode).  While serving, the daemon re-saves atomically \
       every $(b,--checkpoint-every) arrivals and on exit."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Arrivals between automatic checkpoints." in
    Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let window_arg =
    let doc = "Sliding window of the arrival-rate estimator, in gaps." in
    Arg.(value & opt int 50 & info [ "window" ] ~docv:"GAPS" ~doc)
  in
  let min_observations_arg =
    let doc = "Gaps required before drift detection may re-solve." in
    Arg.(value & opt int 30 & info [ "min-observations" ] ~docv:"N" ~doc)
  in
  let cooldown_arg =
    let doc = "Minimum simulated seconds between re-solve attempts." in
    Arg.(value & opt float 100.0 & info [ "cooldown" ] ~docv:"SECONDS" ~doc)
  in
  let resolve_deadline_arg =
    let doc =
      "Wall-clock watchdog budget per online re-solve, in seconds.  A \
       wedged re-solve is aborted at the next solver iteration past the \
       budget, counts as a failed attempt (health degrades, backoff \
       grows), and the incumbent policy keeps answering."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "resolve-deadline" ] ~docv:"SECONDS" ~doc)
  in
  let ingest_capacity_arg =
    let doc =
      "Bounded ingestion queue capacity; arrival events beyond it are \
       dropped and counted (see the $(b,stats) command of the protocol)."
    in
    Arg.(value & opt int 1024 & info [ "ingest-capacity" ] ~docv:"N" ~doc)
  in
  let run runtime device rate capacity weight no_validate checkpoint_path
      checkpoint_every window min_observations cooldown deadline_s
      queue_capacity =
    with_runtime runtime @@ fun () ->
    let serve () =
      let sys = or_die (build_system device rate capacity) in
      validate_or_die sys ~no_validate;
      let estimator = Dpm_adapt.Estimator.sliding_window ~window () in
      let engine =
        Dpm_serve.Engine.create ~weight ~estimator ~min_observations ~cooldown
          ?deadline_s ?checkpoint_path ~checkpoint_every ~queue_capacity sys
      in
      Format.eprintf "dpm_cli serve: ready device=%s health=%s restored=%b@."
        device
        (Dpm_serve.Health.state_to_string (Dpm_serve.Engine.health engine))
        (Dpm_serve.Engine.restored engine);
      Dpm_serve.Server.run engine ~input:stdin ~output:stdout
    in
    (* The protocol's [metrics] command needs a live registry even
       without --metrics; install a private one in that case. *)
    if Dpm_obs.Probe.enabled () then serve ()
    else Dpm_obs.Probe.with_active (Dpm_obs.Metrics.create ()) serve
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the supervised policy daemon: ingest arrival events and \
          answer state-to-action queries over a newline-delimited protocol \
          on stdin/stdout (arrival times, $(b,decide), $(b,health), \
          $(b,stats), $(b,metrics), $(b,provenance), $(b,checkpoint), \
          $(b,quit)).  Policies are re-solved online under a watchdog \
          deadline with exponential backoff; every failure keeps the \
          incumbent policy deployed, and an untrusted checkpoint pins the \
          always-on safe policy — the daemon answers every query in any \
          health state.")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ weight_arg $ no_validate_arg $ checkpoint_arg $ checkpoint_every_arg
      $ window_arg $ min_observations_arg $ cooldown_arg
      $ resolve_deadline_arg $ ingest_capacity_arg)

(* --- fleet -------------------------------------------------------------- *)

let fleet_cmd =
  let servers_arg =
    let doc = "Total server count." in
    Arg.(value & opt int 12 & info [ "servers" ] ~docv:"N" ~doc)
  in
  let distinct_arg =
    let doc =
      "Number of heterogeneous groups (distinct per-server models: the \
       device's SP with queue capacities $(b,--capacity), \
       $(b,--capacity)+1, ...).  Servers are spread evenly across groups."
    in
    Arg.(value & opt int 2 & info [ "distinct" ] ~docv:"K" ~doc)
  in
  let fleet_rate_arg =
    let doc = "Fleet-wide arrival rate (requests/s), used when --segments is not given." in
    Arg.(value & opt float 1.0 & info [ "rate"; "r" ] ~docv:"LAMBDA" ~doc)
  in
  let segments_arg =
    let doc =
      "Fleet-wide arrival plan: comma-separated RATE@UNTIL entries closed \
       by a bare final RATE (the $(b,adapt) grammar), e.g. \
       $(b,2@800,0.8@1400,1.5).  Defaults to a flat plan at --rate."
    in
    Arg.(value & opt (some string) None & info [ "segments" ] ~docv:"SPEC" ~doc)
  in
  let horizon_arg =
    let doc = "Simulated seconds (every server runs the whole horizon)." in
    Arg.(value & opt float 2_000.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc)
  in
  let min_active_arg =
    let doc = "The cluster never deactivates below this many servers." in
    Arg.(value & opt int 1 & info [ "min-active" ] ~docv:"K" ~doc)
  in
  let loss_penalty_arg =
    let doc =
      "Cluster-level cost (J) per rejected request.  Zero reproduces the \
       loss-blind Eqn. (3.1) economics, under which shedding overload can \
       beat scaling out."
    in
    Arg.(value & opt float 100.0 & info [ "loss-penalty" ] ~docv:"J" ~doc)
  in
  let run runtime device rate capacity weight servers distinct segments_spec
      horizon min_active loss_penalty seed =
    with_runtime runtime @@ fun () ->
    if servers < 1 then begin
      prerr_endline "--servers must be >= 1";
      exit 1
    end;
    if distinct < 1 || distinct > servers then begin
      prerr_endline "--distinct must be within [1, --servers]";
      exit 1
    end;
    let segments, final_rate =
      match segments_spec with
      | None -> ([], rate)
      | Some spec -> or_die (Dpm_sim.Workload.segments_of_spec spec)
    in
    (* The device argument fixes the SP; groups differ by queue depth. *)
    let sp_of () =
      match Presets.find device with
      | sp -> sp
      | exception Not_found ->
          prerr_endline
            (Printf.sprintf "unknown device %S (try: %s)" device
               (String.concat ", " (List.map fst (Presets.all ()))));
          exit 1
    in
    let spec =
      let base = servers / distinct and extra = servers mod distinct in
      Dpm_fleet.Spec.create ~weight ~min_active ~loss_penalty
        ~boot_rate:0.5 ~boot_energy:20.0 ~shutdown_rate:1.0
        ~shutdown_energy:5.0
        (List.init distinct (fun i ->
             Dpm_fleet.Spec.group
               ~name:(Printf.sprintf "%s-q%d" device (capacity + i))
               ~sp:(sp_of ())
               ~queue_capacity:(capacity + i)
               ~count:(base + if i < extra then 1 else 0)
               ~off_power:0.1 ()))
    in
    let r =
      Dpm_fleet.Fleet_sim.run ~seed:(Int64.of_int seed) spec ~segments
        ~final_rate ~horizon
    in
    Format.printf "%a" Dpm_fleet.Fleet_sim.pp r;
    let m = Dpm_fleet.Cluster.measures r.Dpm_fleet.Fleet_sim.cluster in
    Format.printf
      "cluster stationary: E[active]=%.2f power=%.2f W throughput=%.4f \
       req/s wait=%.4f s@."
      m.Dpm_fleet.Cluster.expected_active m.Dpm_fleet.Cluster.fleet_power
      m.Dpm_fleet.Cluster.fleet_throughput
      m.Dpm_fleet.Cluster.fleet_waiting_time;
    if r.Dpm_fleet.Fleet_sim.resolve_failures > 0 then
      Format.printf "WARNING: %d per-server solves degraded to incumbents@."
        r.Dpm_fleet.Fleet_sim.resolve_failures
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a hierarchical multi-server fleet: a cluster CTMDP picks \
          the active server count per load phase, deduplicated per-server \
          CTMDP solves supply the power policies, and every server is \
          simulated over the full horizon with per-tier energy accounting.")
    Term.(
      const run $ runtime_args $ device_arg $ fleet_rate_arg $ capacity_arg
      $ weight_arg $ servers_arg $ distinct_arg $ segments_arg $ horizon_arg
      $ min_active_arg $ loss_penalty_arg $ seed_arg)

(* --- dot --------------------------------------------------------------- *)

let dot_cmd =
  let what_arg =
    let doc = "Which chain to render: sp, sq, or sys." in
    Arg.(value & pos 0 string "sp" & info [] ~docv:"WHAT" ~doc)
  in
  let run runtime device rate capacity weight what =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    let sp = Sys_model.sp sys in
    let sol = Optimize.solve ~weight sys in
    match what with
    | "sp" ->
        (* Figure 1: the SP chain under the policy's empty-queue
           stable-state commands. *)
        print_string
          (Service_provider.to_dot sp ~action_of:(fun s ->
               Optimize.action_of sys sol (Sys_model.Stable (s, 0))))
    | "sq" ->
        (* Figure 2: the SQ chain conditioned on the fastest active
           mode commanding sleep at transfers, as in Example 4.3. *)
        let a0 = Service_provider.fastest_active sp in
        let sleep = try Service_provider.deepest_sleep sp with Not_found -> a0 in
        print_string
          (Service_queue.to_dot ~capacity:(Sys_model.queue_capacity sys)
             ~arrival_rate:rate
             ~service_rate:(Service_provider.service_rate sp a0)
             ~switch_out_rate:
               (if sleep = a0 then Sys_model.self_switch_rate sys
                else Service_provider.switch_rate sp a0 sleep))
    | "sys" ->
        let g =
          Sys_model.generator_of_actions sys ~actions:(Optimize.action_of sys sol)
        in
        print_string
          (Dpm_ctmc.Dot.of_generator ~name:"sys"
             ~state_label:(fun k ->
               Format.asprintf "%a" (Sys_model.pp_state sys)
                 (Sys_model.state_of_index sys k))
             g)
    | other ->
        prerr_endline ("unknown graph " ^ other ^ " (try sp, sq, sys)");
        exit 1
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Emit Graphviz DOT for the SP, SQ, or composed SYS chain \
          (regenerates the paper's Figures 1-2).")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ weight_arg $ what_arg)

(* --- report ------------------------------------------------------------- *)

let report_cmd =
  let bound_arg =
    let doc = "Delay bound (average waiting requests) for the constrained section." in
    Arg.(value & opt float 1.0 & info [ "max-waiting"; "b" ] ~docv:"L" ~doc)
  in
  let run runtime device rate capacity bound seed =
    with_runtime runtime @@ fun () ->
    let sys = or_die (build_system device rate capacity) in
    let sp = Sys_model.sp sys in
    Format.printf "# Power-management report: %s@.@." device;
    Format.printf "- arrival rate lambda = %g requests/s (mean inter-arrival %.3g s)@."
      rate (1.0 /. rate);
    Format.printf "- queue capacity Q = %d; composed state space |X| = %d@.@."
      capacity (Sys_model.num_states sys);
    Format.printf "## Device@.@.```@.%a```@.@." Service_provider.pp sp;
    (* Trade-off frontier. *)
    Format.printf "## Power/delay frontier (analytic)@.@.";
    Format.printf "| weight | power (W) | waiting (req) | waiting time (s) |@.";
    Format.printf "|---|---|---|---|@.";
    List.iter
      (fun (sol : Optimize.solution) ->
        let m = sol.Optimize.metrics in
        Format.printf "| %g | %.4f | %.4f | %.4f |@." sol.Optimize.weight
          m.Analytic.power m.Analytic.avg_waiting_requests
          m.Analytic.avg_waiting_time)
      (Optimize.pareto (Optimize.sweep sys ~weights:Optimize.default_weights));
    (* Constrained optimum + validation. *)
    Format.printf "@.## Minimum power with waiting <= %g requests@.@." bound;
    (match Optimize.constrained sys ~max_waiting_requests:bound with
    | None -> Format.printf "infeasible: the device cannot meet this bound.@."
    | Some sol ->
        Format.printf "- weight found by bisection: w = %g@." sol.Optimize.weight;
        Format.printf "- analytic: %a@." Analytic.pp sol.Optimize.metrics;
        let r =
          Dpm_sim.Power_sim.run ~seed:(Int64.of_int seed) ~sys
            ~workload:(Dpm_sim.Workload.poisson ~rate)
            ~controller:(Dpm_sim.Controller.of_solution sys sol)
            ~stop:(Dpm_sim.Power_sim.Requests 50_000) ()
        in
        Format.printf "- simulated (50k requests): %a@." Dpm_sim.Power_sim.pp r;
        Format.printf "- model-vs-simulation gap: power %+.2f%%, waiting %+.2f%%@.@."
          ((r.Dpm_sim.Power_sim.avg_power -. sol.Optimize.metrics.Analytic.power)
          /. sol.Optimize.metrics.Analytic.power *. 100.0)
          ((r.Dpm_sim.Power_sim.avg_waiting_requests
           -. sol.Optimize.metrics.Analytic.avg_waiting_requests)
          /. sol.Optimize.metrics.Analytic.avg_waiting_requests *. 100.0);
        Format.printf "### Policy@.@.```@.%s```@."
          (Policy_export.table sys (Optimize.action_of sys sol)));
    (* Heuristic comparison. *)
    Format.printf "@.## Heuristic baselines (analytic)@.@.";
    Format.printf "| policy | power (W) | waiting (req) |@.|---|---|---|@.";
    let row name actions =
      match Analytic.of_actions sys ~actions with
      | m ->
          Format.printf "| %s | %.4f | %.4f |@." name m.Analytic.power
            m.Analytic.avg_waiting_requests
      | exception _ -> Format.printf "| %s | - | - |@." name
    in
    row "always-on" (Policies.always_on sys);
    row "greedy" (Policies.greedy sys);
    for n = 1 to min 5 capacity do
      row (Printf.sprintf "N-policy N=%d" n) (Policies.n_policy sys ~n)
    done
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Produce a markdown power-management analysis for a device:           frontier, constrained optimum with simulation cross-check, and           heuristic baselines.")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ bound_arg $ seed_arg)

(* --- scenario ------------------------------------------------------------ *)

let scenario_cmd =
  let open Dpm_scenario in
  let family_arg =
    let doc =
      "Workload family: $(b,phased) (phase-type service expansion of the \
       paper system), $(b,polling) (one server over K bounded queues with \
       switch-over times), or $(b,batching) (batch size as a decision)."
    in
    Arg.(
      required
      & pos 0
          (some
             (Arg.enum
                [
                  ("phased", `Phased);
                  ("polling", `Polling);
                  ("batching", `Batching);
                ]))
          None
      & info [] ~docv:"FAMILY" ~doc)
  in
  let service_arg =
    let doc =
      "Service distribution for the phased family: $(b,exp:RATE), \
       $(b,erlang:K:RATE), $(b,hyper2:P:R1:R2), or $(b,fit:MEAN:SCV)."
    in
    Arg.(value & opt string "fit:1.5:0.25" & info [ "service" ] ~docv:"SPEC" ~doc)
  in
  let queue_arg =
    let doc =
      "A polling queue as $(b,LAMBDA,CAP[,SERVICE[,SWITCH]]) with SERVICE \
       and SWITCH in the --service grammar (defaults exp:1 and exp:10).  \
       Repeatable; omitting it entirely gives the two-queue example \
       $(b,0.25,2) and $(b,0.4,2)."
    in
    Arg.(value & opt_all string [] & info [ "queue" ] ~docv:"SPEC" ~doc)
  in
  let loss_penalty_arg =
    let doc = "Cost per lost request (polling family)." in
    Arg.(value & opt float 0.0 & info [ "loss-penalty" ] ~docv:"C" ~doc)
  in
  let max_batch_arg =
    let doc = "Largest batch size the batching policy may form." in
    Arg.(
      value & opt int Batching.max_batch & info [ "max-batch" ] ~docv:"B" ~doc)
  in
  let batch_rates_arg =
    let doc =
      "Comma-separated completion rates of batch sizes 1..B (batching \
       family).  Default: the device's service rate for every size."
    in
    Arg.(value & opt (some string) None & info [ "batch-rates" ] ~docv:"CSV" ~doc)
  in
  let batch_energy_arg =
    let doc =
      "Comma-separated energies per completed batch of sizes 1..B.  \
       Default: zero."
    in
    Arg.(
      value & opt (some string) None & info [ "batch-energy" ] ~docv:"CSV" ~doc)
  in
  let dist_of_spec spec =
    match Phase_type.of_spec spec with
    | Ok d -> d
    | Error msg ->
        prerr_endline msg;
        exit 1
  in
  let floats_of_csv ~flag csv =
    List.map
      (fun f ->
        match float_of_string_opt (String.trim f) with
        | Some v -> v
        | None ->
            prerr_endline
              (Printf.sprintf "%s: not a number: %S" flag (String.trim f));
            exit 1)
      (String.split_on_char ',' csv)
  in
  let queue_of_spec spec =
    match String.split_on_char ',' spec with
    | lam :: cap :: rest when List.length rest <= 2 -> (
        match
          (float_of_string_opt (String.trim lam), int_of_string_opt (String.trim cap))
        with
        | Some arrival_rate, Some capacity ->
            let service =
              match rest with s :: _ -> Some (dist_of_spec s) | [] -> None
            in
            let switch_over =
              match rest with [ _; s ] -> Some (dist_of_spec s) | _ -> None
            in
            Polling.queue ?service ?switch_over ~arrival_rate ~capacity ()
        | _ ->
            prerr_endline
              (Printf.sprintf "bad queue spec %S (want LAMBDA,CAP[,SERVICE[,SWITCH]])"
                 spec);
            exit 1)
    | _ ->
        prerr_endline
          (Printf.sprintf "bad queue spec %S (want LAMBDA,CAP[,SERVICE[,SWITCH]])"
             spec);
        exit 1
  in
  let run runtime device rate capacity weight deadline family service_spec
      queue_specs loss_penalty max_batch batch_rates batch_energy =
    with_runtime runtime @@ fun () ->
    let build f = try f () with Invalid_argument msg -> prerr_endline msg; exit 1 in
    (* Shared reporting: the gain is cross-checked against the
       closed-loop stationary distribution (an independent numerical
       path), so the printed pair is its own sanity check. *)
    let report name describe model =
      match Solve.solve ?deadline_s:deadline model with
      | Error e -> die_on_solver_error e
      | Ok s ->
          Format.printf "scenario: %s@." name;
          describe ();
          Format.printf "states: %d@." (Dpm_ctmdp.Model.num_states model);
          Format.printf "iterations: %d@." s.Solve.iterations;
          Format.printf "gain: %.9f@." s.Solve.gain;
          Format.printf "stationary cross-check: %.9f@."
            (Solve.stationary_gain model ~actions:s.Solve.actions);
          s
    in
    match family with
    | `Phased ->
        let service = dist_of_spec service_spec in
        let sp = or_die (Result.map Sys_model.sp (build_system device rate capacity)) in
        let ph =
          build (fun () ->
              Phased.create ~sp ~queue_capacity:capacity ~arrival_rate:rate
                ~service ())
        in
        ignore
          (report "phased"
             (fun () ->
               Format.printf "service: %s (mean %g, scv %g)@."
                 (Phase_type.to_spec service) (Phase_type.mean service)
                 (Phase_type.scv service);
               Format.printf "weight: %g@." weight)
             (Phased.to_ctmdp ph ~weight))
    | `Polling ->
        let queues =
          match queue_specs with
          | [] -> [ queue_of_spec "0.25,2"; queue_of_spec "0.4,2" ]
          | specs -> List.map queue_of_spec specs
        in
        let p = build (fun () -> Polling.create ~loss_penalty queues) in
        let s =
          report "polling"
            (fun () ->
              Array.iteri
                (fun j (q : Polling.queue) ->
                  Format.printf
                    "queue %d: lambda=%g cap=%d service=%s switch=%s@." j
                    q.Polling.arrival_rate q.Polling.capacity
                    (Phase_type.to_spec q.Polling.service)
                    (Phase_type.to_spec q.Polling.switch_over))
                (Polling.queues p))
            (Polling.to_ctmdp p)
        in
        let count f = Array.fold_left (fun n a -> if f a then n + 1 else n) 0 s.Solve.actions in
        Format.printf "policy: serve %d | goto %d | sleep %d | stay %d@."
          (count (fun a -> a = Polling.action_serve p))
          (count (fun a -> a >= 1 && a <= Polling.num_queues p))
          (count (fun a -> a = Polling.action_sleep p))
          (count (fun a -> a = Polling.action_stay))
    | `Batching ->
        let sys = or_die (build_system device rate capacity) in
        let sp = Sys_model.sp sys in
        let default_mu =
          Service_provider.service_rate sp (Service_provider.fastest_active sp)
        in
        let table flag spec default =
          match spec with
          | None -> fun _ -> default
          | Some csv ->
              let a = Array.of_list (floats_of_csv ~flag csv) in
              if Array.length a < max_batch then begin
                prerr_endline
                  (Printf.sprintf "%s: need %d values, got %d" flag max_batch
                     (Array.length a));
                exit 1
              end;
              fun b -> a.(b - 1)
        in
        let service_rate = table "--batch-rates" batch_rates default_mu in
        let batch_energy = table "--batch-energy" batch_energy 0.0 in
        let b =
          build (fun () ->
              Batching.create ~batch_energy ~sys ~max_batch ~service_rate ())
        in
        let s =
          report "batching"
            (fun () ->
              Format.printf "batch rates: %s@."
                (String.concat ", "
                   (List.init max_batch (fun k ->
                        Printf.sprintf "%g" (service_rate (k + 1)))));
              Format.printf "weight: %g@." weight)
            (Batching.to_ctmdp b ~weight)
        in
        let largest =
          Array.fold_left
            (fun acc a -> max acc (Batching.batch_of_action b a))
            1 s.Solve.actions
        in
        Format.printf "largest batch used: %d@." largest
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Solve a scenario-library workload (phase-type service, K-queue \
          polling, dynamic batching) through the standard solver stack and \
          cross-check the optimum against the closed-loop stationary \
          distribution.  See MODELING.md for a guided tour.")
    Term.(
      const run $ runtime_args $ device_arg $ rate_arg $ capacity_arg
      $ weight_arg $ deadline_arg $ family_arg $ service_arg $ queue_arg
      $ loss_penalty_arg $ max_batch_arg $ batch_rates_arg $ batch_energy_arg)

(* --- entry point --------------------------------------------------------- *)

let () =
  let doc = "Dynamic power management with continuous-time Markov decision processes" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "dpm_cli" ~version:"1.0.0" ~doc)
          [
            info_cmd;
            check_cmd;
            solve_cmd;
            sweep_cmd;
            constrained_cmd;
            simulate_cmd;
            adapt_cmd;
            serve_cmd;
            fleet_cmd;
            dot_cmd;
            report_cmd;
            scenario_cmd;
          ]))
