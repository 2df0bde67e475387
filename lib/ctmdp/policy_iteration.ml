open Dpm_linalg

type evaluation = { gain : float; bias : Vec.t }

type step = {
  iteration : int;
  policy_actions : int array;
  evaluation : evaluation;
  changed_states : int;
}

type result = {
  policy : Policy.t;
  gain : float;
  bias : Vec.t;
  iterations : int;
  trace : step list;
  provenance : Dpm_trace.Provenance.t;
}

let check_ref_state m ref_state =
  if ref_state < 0 || ref_state >= Model.num_states m then
    invalid_arg "Policy_iteration.evaluate: bad reference state"

let exit_rate_of (c : Model.choice) =
  List.fold_left (fun acc (_, r) -> acc +. r) 0.0 c.Model.rates

(* The union of every action's transitions is one graph for the whole
   model, so one reverse Cuthill-McKee order serves every policy's
   system; [solve] computes it once.  Of the order and its reverse
   (same bandwidth) it takes the one that eliminates the reference
   state's row late.  Under the big-M self-switch rates that choice
   matters: over 800 random paper-SP models, policy iteration hit its
   iteration cap on 5 in this orientation against 96 in the other
   (DESIGN.md decision 18). *)
let band_order m ~ref_state =
  let n = Model.num_states m in
  Band.rcm ~late:ref_state n (fun f ->
      for i = 0 to n - 1 do
        for k = 0 to Model.num_choices m i - 1 do
          List.iter (fun (j, _) -> f i j) (Model.choice m i k).Model.rates
        done
      done)

(* Unknowns x: x.(j) = v_j for j <> ref_state, x.(ref_state) = gain.
   Equation for state i:  sum_j G_ij v_j - gain = -c_i,
   with v_{ref} = 0 substituted (so rates into the reference state
   drop out and its column carries the gain unknown instead).

   The system is stored in band order: state [i]'s equation is row
   [position i], the non-reference states' columns keep that order
   with the reference state's slot closed up (lower bandwidth b + 1,
   upper b), and the gain column, all -1, is the dense last column.
   The assembly reads the policy's transition structure straight off
   [Model.choice] — O(n b + nnz), no intermediate [Generator]. *)

let column (o : Band.ordering) ~ref_state j =
  let q = o.Band.position.(j) in
  if q > o.Band.position.(ref_state) then q - 1 else q

let band_system (o : Band.ordering) ~ref_state m p =
  let n = Model.num_states m in
  let b = o.Band.half_bandwidth in
  let a = Band.create ~n ~kl:(b + 1) ~ku:b in
  let rhs = Vec.create n in
  for i = 0 to n - 1 do
    let c = Model.choice m i (Policy.choice_index p i) in
    let row = o.Band.position.(i) in
    rhs.(row) <- -.c.Model.cost;
    if i <> ref_state then
      Band.set a row (column o ~ref_state i) (-.(exit_rate_of c));
    List.iter
      (fun (j, r) ->
        if j <> ref_state then Band.add a row (column o ~ref_state j) r)
      c.Model.rates;
    Band.set a row (n - 1) (-1.0)
  done;
  (a, rhs)

(* A positive [restart_rate] adds an epsilon-rate transition from
   every state to [ref_state], which makes any chain unichain — the
   perturbation used when a multichain policy turns up mid-iteration.
   It only moves the non-reference diagonal entries, so the retry
   patches the already-assembled band in place (the right-hand side
   is untouched) instead of rebuilding the system. *)
let apply_restart o a ~ref_state ~restart_rate =
  for i = 0 to Band.dim a - 1 do
    if i <> ref_state then
      Band.add a o.Band.position.(i) (column o ~ref_state i) (-.restart_rate)
  done

let evaluation_of o ~ref_state x =
  let n = Vec.dim x in
  let bias =
    Vec.init n (fun j ->
        if j = ref_state then 0.0 else x.(column o ~ref_state j))
  in
  { gain = x.(n - 1); bias }

let evaluate_in o ~ref_state m p =
  let a, rhs = band_system o ~ref_state m p in
  evaluation_of o ~ref_state (Band.solve a rhs)

let evaluate ?(ref_state = 0) m p =
  check_ref_state m ref_state;
  evaluate_in (band_order m ~ref_state) ~ref_state m p

(* Multichain policies (possible when the model contains several
   self-sufficient "orbits" — e.g. two active server speeds whose
   states never command each other) make the exact evaluation
   singular.  Retrying with a tiny restart rate toward the reference
   state restores unichain structure at an O(eps) bias error.

   The retry is an escalation ladder: the restart perturbation (a
   Tikhonov-style diagonal shift) grows by three decades per rung
   until the factorization succeeds AND the solution verifies.  Each
   rung re-verifies against both systems: the residual of the
   {e perturbed} system catches an ill-conditioned factorization
   producing garbage, and the residual of the {e exact} unperturbed
   system must stay consistent with the deliberate O(eps * |x|) bias
   — no additional error is tolerated.  The system is assembled once
   and the diagonal patched incrementally; every rung is counted via
   [Dpm_obs]. *)
let tikhonov_ladder = [| 1e-9; 1e-6; 1e-3 |]

let evaluate_robust_in o ~ref_state m p =
  let a, b = band_system o ~ref_state m p in
  match Band.decompose a with
  | lu -> evaluation_of o ~ref_state (Band.solve_factored lu b)
  | exception Lu.Singular first_pivot ->
      Dpm_obs.Probe.incr "policy_iteration.robust_retries";
      Dpm_trace.Provenance.note_robust_retry ();
      let scale = Float.max 1.0 (Model.max_exit_rate m) in
      (* Pristine copy for exact-residual re-verification ([a] is
         patched in place rung by rung). *)
      let exact_a = Band.copy a in
      let applied = ref 0.0 in
      let last_singular = ref first_pivot in
      let rec attempt rung =
        if rung >= Array.length tikhonov_ladder then begin
          Logs.warn (fun k ->
              k "policy evaluation singular at every Tikhonov rung");
          raise (Lu.Singular !last_singular)
        end;
        let eps = tikhonov_ladder.(rung) *. scale in
        apply_restart o a ~ref_state ~restart_rate:(eps -. !applied);
        applied := eps;
        Dpm_obs.Probe.incr "policy_iteration.tikhonov_rungs";
        Dpm_trace.Provenance.note_tikhonov_rung ();
        if Dpm_trace.Recorder.enabled () then
          Dpm_trace.Recorder.instant "pi.tikhonov_rung"
            ~args:
              [
                ("rung", Dpm_trace.Event.Int rung);
                ("restart_rate", Dpm_trace.Event.Float eps);
              ];
        Logs.debug (fun k ->
            k "policy evaluation singular (multichain policy?); Tikhonov \
               rung %d, restart rate %g" rung eps);
        match Band.decompose a with
        | exception Lu.Singular pivot ->
            last_singular := pivot;
            attempt (rung + 1)
        | lu ->
            let x = Band.solve_factored lu b in
            let x_norm = Vec.norm_inf x in
            if not (Float.is_finite x_norm) then attempt (rung + 1)
            else begin
              (* Garbage detector on the system actually factored. *)
              let r_pert = Band.residual_norm a x b in
              let tol_pert = 1e-8 *. Band.max_abs a *. Float.max 1.0 x_norm in
              (* Exact-system consistency: the perturbation moves the
                 residual by at most [eps * |x|]; allow 10x headroom
                 plus the perturbed floor, nothing more. *)
              let r_exact = Band.residual_norm exact_a x b in
              Dpm_obs.Probe.set "policy_iteration.tikhonov_exact_residual"
                r_exact;
              let tol_exact = tol_pert +. (10.0 *. eps *. (1.0 +. x_norm)) in
              if r_pert <= tol_pert && r_exact <= tol_exact then begin
                Dpm_trace.Provenance.note_residual r_exact;
                evaluation_of o ~ref_state x
              end
              else attempt (rung + 1)
            end
      in
      attempt 0

let evaluate_robust ?(ref_state = 0) m p =
  check_ref_state m ref_state;
  evaluate_robust_in (band_order m ~ref_state) ~ref_state m p

(* --- iterative evaluation ------------------------------------------- *)

type fallback =
  | Unreachable_reference of { unreached : int; states : int }
  | Absorbing_state of { state : int }
  | Not_converged
  | Degenerate_iterate
  | Residual_too_large of { residual : float; bound : float }

let fallback_to_string = function
  | Unreachable_reference { unreached; states } ->
      Printf.sprintf "%d of %d states cannot reach the reference state"
        unreached states
  | Absorbing_state { state } ->
      Printf.sprintf "absorbing state %d (zero exit rate)" state
  | Not_converged -> "stationary sweep did not converge"
  | Degenerate_iterate -> "stationary iterate degenerated"
  | Residual_too_large { residual; bound } ->
      Printf.sprintf "verification residual %g above %g" residual bound

(* A constant name per constructor, so a disabled probe allocates
   nothing. *)
let fallback_counter = function
  | Unreachable_reference _ ->
      "policy_iteration.sparse_fallbacks.unreachable_reference"
  | Absorbing_state _ -> "policy_iteration.sparse_fallbacks.absorbing_state"
  | Not_converged -> "policy_iteration.sparse_fallbacks.not_converged"
  | Degenerate_iterate -> "policy_iteration.sparse_fallbacks.degenerate_iterate"
  | Residual_too_large _ ->
      "policy_iteration.sparse_fallbacks.residual_too_large"

exception Fallback of fallback

(* Every state must reach [ref_state] under the policy's chain, else
   the pinned bias system is singular and the sweeps below stagnate at
   a nonzero residual forever.  That happens under a multichain policy,
   but also under a unichain one whose reference state is transient
   (no in-edges).  The dense path handles both, so detect the case
   structurally — one reverse DFS, O(n + nnz), negligible next to a
   single sweep — and fall back before wasting any. *)
let check_reaches_ref ~ref_state m p =
  let n = Model.num_states m in
  let rev = Array.make n [] in
  for i = 0 to n - 1 do
    let c = Model.choice m i (Policy.choice_index p i) in
    List.iter
      (fun (j, r) -> if r > 0.0 && j <> i then rev.(j) <- i :: rev.(j))
      c.Model.rates
  done;
  let seen = Array.make n false in
  let stack = Stack.create () in
  seen.(ref_state) <- true;
  Stack.push ref_state stack;
  let count = ref 0 in
  while not (Stack.is_empty stack) do
    let j = Stack.pop stack in
    incr count;
    List.iter
      (fun i ->
        if not seen.(i) then begin
          seen.(i) <- true;
          Stack.push i stack
        end)
      rev.(j)
  done;
  if !count < n then
    raise
      (Fallback (Unreachable_reference { unreached = n - !count; states = n }))

(* Unchecked reads and writes of the float-array iterates: indices
   come from the flattened rows, which are in range by construction. *)
external fget : float array -> int -> float = "%array_unsafe_get"
external fset : float array -> int -> float -> unit = "%array_unsafe_set"

(* The policy's rows are flattened once into plain int/float arrays
   (O(n + nnz), with a counting sort for column access), and both
   Gauss-Seidel stages sweep those arrays over flat float-array
   iterates, so a sweep allocates nothing.  Stage 1 finds the
   stationary distribution (gain = pi . c); stage 2 the bias from the
   system with the gain known and [v_ref] pinned to 0, which restores
   weak diagonal dominance — the M-matrix structure Gauss-Seidel is
   reliable on.  Acceptance is decided by verification against the
   exact relative-value equations. *)
let evaluate_iterative_exn ~ref_state ~tol ~max_iter ~guard m p =
  let n = Model.num_states m in
  check_reaches_ref ~ref_state m p;
  (* Flatten the policy's rows: costs, exit rates, out-edges. *)
  let cost = Array.make n 0.0 and exit = Array.make n 0.0 in
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let c = Model.choice m i (Policy.choice_index p i) in
    cost.(i) <- c.Model.cost;
    exit.(i) <- exit_rate_of c;
    if exit.(i) <= 0.0 then raise (Fallback (Absorbing_state { state = i }));
    row_start.(i + 1) <- row_start.(i) + List.length c.Model.rates
  done;
  let nnz = row_start.(n) in
  let col = Array.make nnz 0 and rate = Array.make nnz 0.0 in
  let fill = ref 0 in
  for i = 0 to n - 1 do
    let c = Model.choice m i (Policy.choice_index p i) in
    List.iter
      (fun (j, r) ->
        col.(!fill) <- j;
        rate.(!fill) <- r;
        incr fill)
      c.Model.rates
  done;
  (* Reverse (in-edge) adjacency by counting sort — the column access
     stage 1 sweeps over, built without any comparison sort. *)
  let rstart = Array.make (n + 1) 0 in
  for e = 0 to nnz - 1 do
    rstart.(col.(e) + 1) <- rstart.(col.(e) + 1) + 1
  done;
  for j = 1 to n do
    rstart.(j) <- rstart.(j) + rstart.(j - 1)
  done;
  let rsrc = Array.make (max 1 nnz) 0 and rrate = Array.make (max 1 nnz) 0.0 in
  let cursor = Array.sub rstart 0 n in
  for i = 0 to n - 1 do
    for e = row_start.(i) to row_start.(i + 1) - 1 do
      let j = col.(e) in
      rsrc.(cursor.(j)) <- i;
      rrate.(cursor.(j)) <- rate.(e);
      cursor.(j) <- cursor.(j) + 1
    done
  done;
  let acc = ref 0.0 in
  (* Stage 1: stationary distribution of the policy chain -> gain. *)
  let pi = Array.make n (1.0 /. float_of_int n) in
  let prev = Array.make n 0.0 in
  let sweeps = ref 0 and change = ref infinity in
  while !change > tol && !sweeps < max_iter do
    (* One guard tick per sweep, so wall-clock deadlines and injected
       stalls abort a wedged evaluation mid-solve. *)
    guard ();
    Array.blit pi 0 prev 0 n;
    for j = 0 to n - 1 do
      acc := 0.0;
      for e = rstart.(j) to rstart.(j + 1) - 1 do
        let i = rsrc.(e) in
        if i <> j then acc := !acc +. (fget pi i *. rrate.(e))
      done;
      fset pi j (!acc /. exit.(j))
    done;
    acc := 0.0;
    for i = 0 to n - 1 do
      acc := !acc +. fget pi i
    done;
    let s = !acc in
    if s = 0.0 || not (Float.is_finite s) then
      raise (Fallback Degenerate_iterate);
    let scale = 1.0 /. s in
    for i = 0 to n - 1 do
      fset pi i (scale *. fget pi i)
    done;
    acc := 0.0;
    for i = 0 to n - 1 do
      acc := !acc +. Float.abs (fget pi i -. fget prev i)
    done;
    change := !acc;
    incr sweeps
  done;
  if !change > tol then raise (Fallback Not_converged);
  let gain = ref 0.0 in
  for i = 0 to n - 1 do
    gain := !gain +. (fget pi i *. cost.(i))
  done;
  let gain = !gain in
  (* Stage 2: the pinned bias system, rows normalized by their exit
     rate.  That leaves the iterates untouched (each update solves its
     row for v_i) but makes the residual test per-row relative —
     essential because the big-M self-switch rates (1e6) put the raw
     residual's floating-point floor far above any absolute tolerance
     worth having.  The tolerance also scales with the right-hand
     side: the bias can reach 1e4 on deep queues, putting the
     attainable floor near eps*|bias|.  Convergence here is advisory;
     acceptance is decided by the exact-system verification below. *)
  let v = Array.make n 0.0 in
  let b_inf = ref 0.0 in
  for i = 0 to n - 1 do
    if i <> ref_state then
      b_inf := Float.max !b_inf (Float.abs ((gain -. cost.(i)) /. exit.(i)))
  done;
  let tol2 = tol *. Float.max 1.0 !b_inf in
  let sweeps2 = ref 0 and residual = ref infinity in
  while !residual > tol2 && !sweeps2 < max_iter do
    guard ();
    for i = 0 to n - 1 do
      if i <> ref_state then begin
        acc := 0.0;
        for e = row_start.(i) to row_start.(i + 1) - 1 do
          let j = col.(e) in
          if j <> ref_state then acc := !acc +. (rate.(e) *. fget v j)
        done;
        fset v i ((cost.(i) -. gain +. !acc) /. exit.(i))
      end
    done;
    let r = ref 0.0 in
    for i = 0 to n - 1 do
      if i <> ref_state then begin
        acc := 0.0;
        for e = row_start.(i) to row_start.(i + 1) - 1 do
          let j = col.(e) in
          if j <> ref_state then acc := !acc +. (rate.(e) *. fget v j)
        done;
        r :=
          Float.max !r
            (Float.abs
               ((!acc +. cost.(i) -. gain -. (exit.(i) *. fget v i))
               /. exit.(i)))
      end
    done;
    residual := !r;
    incr sweeps2
  done;
  Dpm_obs.Probe.add "policy_iteration.eval_sweeps" (!sweeps + !sweeps2);
  (* Verify against the exact relative-value equations.  This also
     catches multichain policies the reachability pass let through,
     where the stationary sweep converges to one chain's gain. *)
  let b_norm = ref 0.0 in
  for i = 0 to n - 1 do
    b_norm := Float.max !b_norm (Float.abs cost.(i))
  done;
  let verr = ref 0.0 in
  for i = 0 to n - 1 do
    acc := 0.0;
    for e = row_start.(i) to row_start.(i + 1) - 1 do
      let j = col.(e) in
      if j <> ref_state then acc := !acc +. (rate.(e) *. fget v j)
    done;
    let diag = if i = ref_state then 0.0 else exit.(i) *. fget v i in
    verr := Float.max !verr (Float.abs (!acc -. diag -. gain +. cost.(i)))
  done;
  let bound = 1e-7 *. Float.max 1.0 !b_norm in
  if !verr > bound then
    raise (Fallback (Residual_too_large { residual = !verr; bound }));
  Dpm_trace.Provenance.note_residual !verr;
  let bias =
    Vec.init n (fun j -> if j = ref_state then 0.0 else fget v j)
  in
  { gain; bias }

let evaluate_iterative ?(ref_state = 0) ?(tol = 1e-12) ?max_iter
    ?(guard = fun () -> ()) m p =
  check_ref_state m ref_state;
  let max_iter =
    match max_iter with
    | Some k -> k
    | None -> max 10_000 (50 * Model.num_states m)
  in
  match evaluate_iterative_exn ~ref_state ~tol ~max_iter ~guard m p with
  | e -> Ok e
  | exception Fallback reason -> Error reason

(* [order] is forced only when the fallback runs. *)
let sparse_or_band ~order ~ref_state ?tol ?max_iter ?guard m p =
  match evaluate_iterative ~ref_state ?tol ?max_iter ?guard m p with
  | Ok e ->
      Dpm_obs.Probe.incr "policy_iteration.sparse_evals";
      Dpm_obs.Probe.set "policy_iteration.eval_path" 1.0;
      Dpm_trace.Provenance.note_eval_path "sparse";
      e
  | Error reason ->
      Logs.debug (fun k ->
          k "iterative policy evaluation fell back to dense LU: %s"
            (fallback_to_string reason));
      Dpm_obs.Probe.incr "policy_iteration.sparse_fallbacks";
      Dpm_obs.Probe.incr (fallback_counter reason);
      Dpm_obs.Probe.set "policy_iteration.eval_path" 0.0;
      Dpm_trace.Provenance.note_sparse_fallback ();
      Dpm_trace.Provenance.note_eval_path "dense";
      if Dpm_trace.Recorder.enabled () then
        Dpm_trace.Recorder.instant "pi.sparse_fallback"
          ~args:
            [ ("reason", Dpm_trace.Event.Str (fallback_to_string reason)) ];
      evaluate_robust_in (order ()) ~ref_state m p

let evaluate_sparse ?(ref_state = 0) ?tol ?max_iter ?guard m p =
  sparse_or_band
    ~order:(fun () -> band_order m ~ref_state)
    ~ref_state ?tol ?max_iter ?guard m p

(* From this many states on, evaluations try the sweeps first; the
   direct route below it is the banded LU.  The populations of the
   design-sweep benchmark follow this split. *)
let sparse_threshold = 192

let evaluate_routed o ~ref_state ~guard m p =
  if Model.num_states m >= sparse_threshold then
    sparse_or_band ~order:(fun () -> o) ~ref_state ~guard m p
  else begin
    Dpm_obs.Probe.set "policy_iteration.eval_path" 0.0;
    Dpm_trace.Provenance.note_eval_path "dense";
    evaluate_robust_in o ~ref_state m p
  end

let test_quantity i (c : Model.choice) bias =
  (* c_i^a + sum_j s^a_ij v_j, with the diagonal folded in:
     sum_j q_ij v_j = sum_{j<>i} rate_ij (v_j - v_i). *)
  List.fold_left
    (fun acc (j, r) -> acc +. (r *. (bias.(j) -. bias.(i))))
    c.Model.cost c.Model.rates

let improve m (eval : evaluation) ~incumbent =
  let n = Model.num_states m in
  let tol = 1e-9 in
  let changed = ref 0 in
  let selection =
    Array.init n (fun i ->
        let current = Policy.choice_index incumbent i in
        let current_value = test_quantity i (Model.choice m i current) eval.bias in
        let best = ref current and best_value = ref current_value in
        for k = 0 to Model.num_choices m i - 1 do
          if k <> current then begin
            let v = test_quantity i (Model.choice m i k) eval.bias in
            if v < !best_value -. tol then begin
              best := k;
              best_value := v
            end
          end
        done;
        if !best <> current then incr changed;
        !best)
  in
  (Policy.of_choice_indices m selection, !changed)

let solve ?(ref_state = 0) ?(max_iter = 1000) ?init ?(guard = fun () -> ()) m
    =
  Dpm_obs.Span.with_ "policy_iteration" @@ fun () ->
  let t0 = Dpm_obs.Probe.now () in
  check_ref_state m ref_state;
  let order = band_order m ~ref_state in
  let origin =
    match init with
    | Some _ -> Dpm_trace.Provenance.Warm
    | None -> Dpm_trace.Provenance.Cold
  in
  let init = match init with Some p -> p | None -> Policy.uniform_first m in
  let rec loop iteration policy trace =
    guard ();
    if iteration > max_iter then
      raise
        (Solver_error.Nonconvergent
           {
             solver = "Policy_iteration.solve";
             iterations = max_iter;
             residual = Float.nan;
           });
    let evaluation =
      Dpm_obs.Probe.time "policy_iteration.eval_time_seconds" (fun () ->
          evaluate_routed order ~ref_state ~guard m policy)
    in
    let next, changed =
      Dpm_obs.Probe.time "policy_iteration.improve_time_seconds" (fun () ->
          improve m evaluation ~incumbent:policy)
    in
    Dpm_obs.Probe.add "policy_iteration.changed_states" changed;
    let step =
      {
        iteration;
        policy_actions = Policy.actions m policy;
        evaluation;
        changed_states = changed;
      }
    in
    Logs.debug (fun k ->
        k "policy iteration %d: gain=%g changed=%d" iteration evaluation.gain
          changed);
    if changed = 0 then begin
      Dpm_obs.Probe.incr "policy_iteration.solves";
      Dpm_obs.Probe.add "policy_iteration.iterations" iteration;
      Dpm_obs.Probe.set "policy_iteration.gain" evaluation.gain;
      (policy, evaluation, iteration, List.rev (step :: trace))
    end
    else loop (iteration + 1) next (step :: trace)
  in
  let (policy, evaluation, iterations, trace), counts =
    Dpm_trace.Provenance.collect (fun () -> loop 1 init [])
  in
  {
    policy;
    gain = evaluation.gain;
    bias = evaluation.bias;
    iterations;
    trace;
    provenance =
      Dpm_trace.Provenance.of_counts ~method_:"policy_iteration" ~iterations
        ~origin
        ~wall_s:(Dpm_obs.Probe.now () -. t0)
        counts;
  }

let brute_force m =
  let order = band_order m ~ref_state:0 in
  let best = ref None in
  Seq.iter
    (fun p ->
      match evaluate_in order ~ref_state:0 m p with
      | { gain; _ } -> (
          match !best with
          | Some (_, g) when g <= gain -> ()
          | _ -> best := Some (p, gain))
      | exception Lu.Singular _ -> ())
    (Policy.enumerate m);
  match !best with
  | Some (p, g) -> (p, g)
  | None -> failwith "Policy_iteration.brute_force: no evaluable policy"
