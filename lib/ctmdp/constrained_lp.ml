open Dpm_linalg

type result = {
  objective : float;
  secondary : float;
  distributions : float array array;
  lagrange_multiplier : float;
  randomized_states : int list;
}

let mixed_generator m distributions =
  let n = Model.num_states m in
  if Array.length distributions <> n then
    invalid_arg "Constrained_lp.mixed_generator: dimension mismatch";
  let rates = ref [] in
  let costs = Vec.create n in
  for i = 0 to n - 1 do
    let dist = distributions.(i) in
    if Array.length dist <> Model.num_choices m i then
      invalid_arg "Constrained_lp.mixed_generator: distribution shape mismatch";
    Array.iteri
      (fun k p ->
        if p < -1e-12 then
          invalid_arg "Constrained_lp.mixed_generator: negative probability";
        if p > 0.0 then begin
          let c = Model.choice m i k in
          costs.(i) <- costs.(i) +. (p *. c.Model.cost);
          List.iter
            (fun (j, r) -> if r > 0.0 then rates := (i, j, p *. r) :: !rates)
            c.Model.rates
        end)
      dist
  done;
  (Dpm_ctmc.Generator.of_rates ~dim:n !rates, costs)

let solve m ~secondary ~bound =
  let n = Model.num_states m in
  let ref_state = 0 in
  (* LP variables: one per (state, choice), plus the slack of the
     bound constraint. *)
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
  let nv = !count + 1 (* + slack *) in
  let slack = !count in
  (* Rows: balance for all states but ref, normalization, bound. *)
  let row_of_state = Array.make n (-1) in
  let next = ref 0 in
  for j = 0 to n - 1 do
    if j <> ref_state then begin
      row_of_state.(j) <- !next;
      incr next
    end
  done;
  let norm_row = n - 1 and bound_row = n in
  let nrows = n + 1 in
  let a = Matrix.create nrows nv in
  let c = Vec.create nv in
  Array.iteri
    (fun v (i, k) ->
      let choice = Model.choice m i k in
      c.(v) <- choice.Model.cost;
      Matrix.set a norm_row v 1.0;
      Matrix.set a bound_row v (secondary i k);
      let exit = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 choice.Model.rates in
      if i <> ref_state then
        Matrix.update a row_of_state.(i) v (fun x -> x -. exit);
      List.iter
        (fun (j, r) ->
          if j <> ref_state then
            Matrix.update a row_of_state.(j) v (fun x -> x +. r))
        choice.Model.rates)
    pairs;
  Matrix.set a bound_row slack 1.0;
  let b = Vec.create nrows in
  b.(norm_row) <- 1.0;
  b.(bound_row) <- bound;
  match Simplex.minimize ~c ~a b with
  | Simplex.Infeasible -> None
  | Simplex.Unbounded ->
      raise (Solver_error.Lp_unbounded "Constrained_lp.solve: unbounded (model bug?)")
  | Simplex.Optimal { x; objective; dual } ->
      let mass = Array.map (fun vars -> Array.fold_left (fun acc v -> acc +. x.(v)) 0.0 vars) var_of in
      (* Lagrange multiplier: shadow price of the bound row.  With the
         <=-as-slack-equality convention and minimization, tightening
         the bound raises cost, so the multiplier is the negated
         dual, floored at 0 against rounding. *)
      let lambda = Float.max 0.0 (-.dual.(bound_row)) in
      (* Bias from the balance duals, for completing transient
         states under the Lagrangian cost. *)
      let bias =
        Vec.init n (fun j ->
            if j = ref_state then 0.0 else -.dual.(row_of_state.(j)))
      in
      let lagrangian_value i k =
        let ch = Model.choice m i k in
        List.fold_left
          (fun acc (j, r) -> acc +. (r *. (bias.(j) -. bias.(i))))
          (ch.Model.cost +. (lambda *. secondary i k))
          ch.Model.rates
      in
      let distributions =
        Array.init n (fun i ->
            let kcount = Model.num_choices m i in
            if mass.(i) > 1e-9 then
              Array.init kcount (fun k -> Float.max 0.0 x.(var_of.(i).(k)) /. mass.(i))
            else begin
              (* Transient state: deterministic greedy under the
                 Lagrangian. *)
              let best = ref 0 and best_value = ref (lagrangian_value i 0) in
              for k = 1 to kcount - 1 do
                let v = lagrangian_value i k in
                if v < !best_value -. 1e-12 then begin
                  best := k;
                  best_value := v
                end
              done;
              Array.init kcount (fun k -> if k = !best then 1.0 else 0.0)
            end)
      in
      let secondary_value =
        let acc = ref 0.0 in
        Array.iteri (fun v (i, k) -> acc := !acc +. (x.(v) *. secondary i k)) pairs;
        !acc
      in
      let randomized_states =
        List.filter
          (fun i ->
            Array.fold_left (fun k p -> if p > 1e-6 then k + 1 else k) 0
              distributions.(i)
            > 1)
          (List.init n (fun i -> i))
      in
      Some
        {
          objective;
          secondary = secondary_value;
          distributions;
          lagrange_multiplier = lambda;
          randomized_states;
        }
