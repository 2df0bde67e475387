open Dpm_linalg

type result = {
  policy : Policy.t;
  gain : float;
  occupation : float array array;
  bias : Vec.t;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?(ref_state = 0) ?max_pivots ?guard m =
  let t0 = Dpm_obs.Probe.now () in
  let n = Model.num_states m in
  if ref_state < 0 || ref_state >= n then
    invalid_arg "Lp_solver.solve: bad reference state";
  (* Flatten the (state, choice) pairs into LP variables. *)
  let var_of = Array.make n [||] in
  let pairs = ref [] in
  let count = ref 0 in
  for i = 0 to n - 1 do
    var_of.(i) <-
      Array.init (Model.num_choices m i) (fun k ->
          let v = !count in
          incr count;
          pairs := (i, k) :: !pairs;
          v)
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let nv = !count in
  (* Constraint rows: balance for every state except [ref_state]
     (they are linearly dependent), then normalization. *)
  let row_of_state = Array.make n (-1) in
  let nrows = n in
  let next = ref 0 in
  for j = 0 to n - 1 do
    if j <> ref_state then begin
      row_of_state.(j) <- !next;
      incr next
    end
  done;
  let norm_row = n - 1 in
  let a = Matrix.create nrows nv in
  let c = Vec.create nv in
  Array.iteri
    (fun v (i, k) ->
      let choice = Model.choice m i k in
      c.(v) <- choice.Model.cost;
      (* Normalization. *)
      Matrix.set a norm_row v 1.0;
      (* Balance: q^a_{ij} for j <> i plus the diagonal -exit at i. *)
      let exit = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 choice.Model.rates in
      if i <> ref_state then
        Matrix.update a row_of_state.(i) v (fun x -> x -. exit);
      List.iter
        (fun (j, r) ->
          if j <> ref_state then
            Matrix.update a row_of_state.(j) v (fun x -> x +. r))
        choice.Model.rates)
    pairs;
  let b = Vec.create nrows in
  b.(norm_row) <- 1.0;
  let outcome, counts =
    Dpm_trace.Provenance.collect (fun () ->
        Simplex.minimize ?max_pivots ?guard ~c ~a b)
  in
  match outcome with
  | Simplex.Infeasible ->
      raise (Solver_error.Lp_infeasible "Lp_solver.solve: LP infeasible (model bug?)")
  | Simplex.Unbounded ->
      raise (Solver_error.Lp_unbounded "Lp_solver.solve: LP unbounded (model bug?)")
  | Simplex.Optimal { x; objective; dual } ->
      let occupation =
        Array.init n (fun i -> Array.map (fun v -> x.(v)) var_of.(i))
      in
      (* Duals: balance rows give the bias (v_ref pinned at 0 by the
         dropped row; sign flipped by the constraint orientation). *)
      let bias =
        Vec.init n (fun j ->
            if j = ref_state then 0.0 else -.dual.(row_of_state.(j)))
      in
      let choice_for i =
        (* Positive-measure choice if any; otherwise greedy in the
           recovered bias (the PI improvement rule). *)
        let k_star = ref (-1) in
        Array.iteri
          (fun k v -> if !k_star < 0 && x.(v) > 1e-9 then k_star := k)
          var_of.(i);
        if !k_star >= 0 then !k_star
        else begin
          let value k =
            let ch = Model.choice m i k in
            List.fold_left
              (fun acc (j, r) -> acc +. (r *. (bias.(j) -. bias.(i))))
              ch.Model.cost ch.Model.rates
          in
          let best = ref 0 and best_value = ref (value 0) in
          for k = 1 to Model.num_choices m i - 1 do
            let v = value k in
            if v < !best_value -. 1e-12 then begin
              best := k;
              best_value := v
            end
          done;
          !best
        end
      in
      {
        policy = Policy.of_choice_indices m (Array.init n choice_for);
        gain = objective;
        occupation;
        bias;
        provenance =
          Dpm_trace.Provenance.of_counts ~method_:"lp"
            ~iterations:counts.Dpm_trace.Provenance.pivots
            ~origin:Dpm_trace.Provenance.Cold
            ~wall_s:(Dpm_obs.Probe.now () -. t0)
            ~eval_path:"simplex" counts;
      }
