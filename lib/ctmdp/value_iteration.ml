open Dpm_linalg

(* Unchecked reads and writes of the float-array iterates: indices
   come from the flattened choices, which are in range by
   construction. *)
external fget : float array -> int -> float = "%array_unsafe_get"
external fset : float array -> int -> float -> unit = "%array_unsafe_set"

type result = {
  policy : Policy.t;
  gain_lower : float;
  gain_upper : float;
  values : Vec.t;
  iterations : int;
  converged : bool;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?(tol = 1e-9) ?(max_iter = 1_000_000) ?init_values
    ?(guard = fun () -> ()) m =
  Dpm_obs.Span.with_ "value_iteration" @@ fun () ->
  let t0 = Dpm_obs.Probe.now () in
  let origin =
    match init_values with
    | Some _ -> Dpm_trace.Provenance.Warm
    | None -> Dpm_trace.Provenance.Cold
  in
  let n = Model.num_states m in
  let u = Model.max_exit_rate m in
  (* Strictly above the max exit rate so every state keeps a self-loop
     and the uniformized chain is aperiodic. *)
  let lam = if u = 0.0 then 1.0 else 1.05 *. u in
  (* The iterate; both branches build a fresh vector, so it is swept
     in place and returned as [values]. *)
  let v =
    match init_values with
    | None -> Vec.create n
    | Some v0 ->
        if Vec.dim v0 <> n then
          invalid_arg "Value_iteration.solve: init_values dimension mismatch";
        Array.iter
          (fun x ->
            if not (Float.is_finite x) then
              invalid_arg "Value_iteration.solve: init_values must be finite")
          v0;
        Dpm_obs.Probe.incr "value_iteration.warm_starts";
        (* Re-center on state 0 exactly as every sweep below does, so
           a warm start only shifts the starting point of the span
           contraction, never the invariant. *)
        let offset = v0.(0) in
        Vec.init n (fun i -> v0.(i) -. offset)
  in
  (* The model's choices are flattened once into flat cost/rate
     arrays and the sweeps run over two flat float arrays.  [backup] is
     inlined into its callers, so its float result is never boxed and
     a sweep allocates nothing. *)
  let total_choices = ref 0 in
  let choice_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    total_choices := !total_choices + Model.num_choices m i;
    choice_start.(i + 1) <- !total_choices
  done;
  let nc = !total_choices in
  let ccost = Array.make nc 0.0 in
  let crow_start = Array.make (nc + 1) 0 in
  let nnz = ref 0 in
  for i = 0 to n - 1 do
    for k = 0 to Model.num_choices m i - 1 do
      let c = Model.choice m i k in
      let idx = choice_start.(i) + k in
      ccost.(idx) <- c.Model.cost;
      nnz := !nnz + List.length c.Model.rates;
      crow_start.(idx + 1) <- !nnz
    done
  done;
  let ccol = Array.make (max 1 !nnz) 0 in
  let crate = Array.make (max 1 !nnz) 0.0 in
  let fill = ref 0 in
  for i = 0 to n - 1 do
    for k = 0 to Model.num_choices m i - 1 do
      let c = Model.choice m i k in
      List.iter
        (fun (j, r) ->
          ccol.(!fill) <- j;
          crate.(!fill) <- r;
          incr fill)
        c.Model.rates
    done
  done;
  let next = Array.make n 0.0 in
  let[@inline] backup c i =
    (* c/L + v(i) + sum_j (r/L) (v(j) - v(i)), left to right. *)
    let vi = fget v i in
    let acc = ref ((ccost.(c) /. lam) +. vi) in
    for e = crow_start.(c) to crow_start.(c + 1) - 1 do
      acc :=
        !acc +. (crate.(e) /. lam *. (fget v ccol.(e) -. vi))
    done;
    !acc
  in
  let iterations = ref 0 in
  let lower = ref neg_infinity and upper = ref infinity in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    guard ();
    for i = 0 to n - 1 do
      let c0 = choice_start.(i) in
      let best = ref (backup c0 i) in
      for c = c0 + 1 to choice_start.(i + 1) - 1 do
        best := Float.min !best (backup c i)
      done;
      fset next i !best
    done;
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to n - 1 do
      let d = fget next i -. fget v i in
      lo := Float.min !lo d;
      hi := Float.max !hi d
    done;
    (* Per-step gain bounds; scale by lam for continuous time. *)
    lower := lam *. !lo;
    upper := lam *. !hi;
    (* Keep values bounded by re-centering on state 0. *)
    let offset = fget next 0 in
    for i = 0 to n - 1 do
      fset v i (fget next i -. offset)
    done;
    incr iterations;
    if !hi -. !lo < tol then converged := true
  done;
  let iterations = !iterations and lower = !lower and upper = !upper in
  Dpm_obs.Probe.incr "value_iteration.solves";
  Dpm_obs.Probe.add "value_iteration.iterations" iterations;
  Dpm_obs.Probe.set "value_iteration.gain_span" (upper -. lower);
  let greedy =
    Array.init n (fun i ->
        let c0 = choice_start.(i) in
        let best = ref 0 and best_value = ref (backup c0 i) in
        for c = c0 + 1 to choice_start.(i + 1) - 1 do
          let value = backup c i in
          if value < !best_value then begin
            best := c - c0;
            best_value := value
          end
        done;
        !best)
  in
  {
    policy = Policy.of_choice_indices m greedy;
    gain_lower = lower;
    gain_upper = upper;
    values = v;
    iterations;
    converged = !converged;
    provenance =
      (* VI has no retry machinery; its counts are structurally empty. *)
      (let (), counts = Dpm_trace.Provenance.collect (fun () -> ()) in
       Dpm_trace.Provenance.of_counts ~method_:"value_iteration"
         ~iterations ~origin
         ~wall_s:(Dpm_obs.Probe.now () -. t0)
         ~eval_path:"uniformized" ~residual:(upper -. lower) counts);
  }
