open Dpm_linalg
open Dpm_ctmc

type result = { policy : Policy.t; values : Vec.t; iterations : int }

let check_discount discount =
  if discount <= 0.0 || not (Float.is_finite discount) then
    invalid_arg "Discounted: discount rate must be positive and finite"

(* v_i = c_i/(a+L) + (L/(a+L)) sum_j P_ij v_j  with P = I + Q/L.
   Equivalently (a+L) v_i - L v_i - sum_j Q_ij v_j = c_i, i.e.
   (aI - Q) v = c — so we can skip uniformization for evaluation and
   solve the continuous system directly. *)
let evaluate m ~discount p =
  check_discount discount;
  let n = Model.num_states m in
  let g = Policy.generator m p in
  let a =
    Matrix.init n n (fun i j ->
        (if i = j then discount else 0.0) -. Generator.get g i j)
  in
  Lu.solve a (Policy.cost_vector m p)

let greedy m ~discount values =
  let n = Model.num_states m in
  let q_value (c : Model.choice) =
    (* One-step lookahead in continuous time: the state is left after
       Exp(exit) at discounted weight exit/(a+exit); staying costs
       c/(a+exit).  Expressed uniformly:
       v = (c + sum_j rate_ij v_j) / (a + exit_i). *)
    let exit = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 c.Model.rates in
    let flow =
      List.fold_left (fun acc (j, r) -> acc +. (r *. values.(j))) 0.0 c.Model.rates
    in
    (c.Model.cost +. flow) /. (discount +. exit)
  in
  Array.init n (fun i ->
      let best = ref 0 and best_value = ref (q_value (Model.choice m i 0)) in
      for k = 1 to Model.num_choices m i - 1 do
        let v = q_value (Model.choice m i k) in
        if v < !best_value -. 1e-12 then begin
          best := k;
          best_value := v
        end
      done;
      !best)

let solve ?(max_iter = 1000) ?init m ~discount =
  check_discount discount;
  let rec loop iteration policy =
    if iteration > max_iter then
      raise
        (Solver_error.Nonconvergent
           {
             solver = "Discounted.solve";
             iterations = max_iter;
             residual = Float.nan;
           });
    let values = evaluate m ~discount policy in
    let next = Policy.of_choice_indices m (greedy m ~discount values) in
    if Policy.equal next policy then { policy; values; iterations = iteration }
    else loop (iteration + 1) next
  in
  let init = match init with Some p -> p | None -> Policy.uniform_first m in
  loop 1 init
