open Dpm_linalg

type choice = { action : int; probs : (int * float) list; cost : float }

type t = { n : int; table : choice array array }

let validate_choice ~n ~state c =
  if not (Float.is_finite c.cost) then
    invalid_arg
      (Printf.sprintf "Dtmdp: state %d action %d has non-finite cost" state c.action);
  let total = ref 0.0 in
  List.iter
    (fun (j, p) ->
      if j < 0 || j >= n then
        invalid_arg
          (Printf.sprintf "Dtmdp: state %d action %d targets %d (of %d)" state
             c.action j n);
      if p < -1e-12 || not (Float.is_finite p) then
        invalid_arg
          (Printf.sprintf "Dtmdp: state %d action %d has probability %g" state
             c.action p);
      total := !total +. p)
    c.probs;
  if Float.abs (!total -. 1.0) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Dtmdp: state %d action %d row sums to %.12g" state
         c.action !total)

(* Merge duplicate targets so downstream code can assume unique keys. *)
let normalize_probs probs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (j, p) ->
      Hashtbl.replace tbl j (p +. Option.value (Hashtbl.find_opt tbl j) ~default:0.0))
    probs;
  List.sort compare (Hashtbl.fold (fun j p acc -> (j, p) :: acc) tbl [])

let create ~num_states choices_of =
  if num_states <= 0 then invalid_arg "Dtmdp.create: no states";
  let table =
    Array.init num_states (fun i ->
        match choices_of i with
        | [] -> invalid_arg (Printf.sprintf "Dtmdp.create: state %d has no actions" i)
        | cs ->
            List.iter (validate_choice ~n:num_states ~state:i) cs;
            let labels = List.map (fun c -> c.action) cs in
            if List.length (List.sort_uniq compare labels) <> List.length labels
            then
              invalid_arg
                (Printf.sprintf "Dtmdp.create: state %d has duplicate labels" i);
            Array.of_list
              (List.map (fun c -> { c with probs = normalize_probs c.probs }) cs))
  in
  { n = num_states; table }

let num_states m = m.n
let num_choices m i = Array.length m.table.(i)

let choice m i k =
  if i < 0 || i >= m.n then invalid_arg "Dtmdp.choice: bad state";
  if k < 0 || k >= Array.length m.table.(i) then
    invalid_arg (Printf.sprintf "Dtmdp.choice: state %d has no choice %d" i k);
  m.table.(i).(k)

type policy = int array

let policy_of_actions m labels =
  if Array.length labels <> m.n then
    invalid_arg "Dtmdp.policy_of_actions: dimension mismatch";
  Array.mapi
    (fun i label ->
      let rec scan k =
        if k >= Array.length m.table.(i) then
          invalid_arg
            (Printf.sprintf "Dtmdp.policy_of_actions: state %d offers no action %d"
               i label)
        else if m.table.(i).(k).action = label then k
        else scan (k + 1)
      in
      scan 0)
    labels

let actions_of_policy m p = Array.mapi (fun i k -> (choice m i k).action) p

type evaluation = { gain : float; bias : Vec.t }

let transition_matrix m p =
  let mat = Matrix.create m.n m.n in
  Array.iteri
    (fun i k ->
      List.iter (fun (j, pr) -> Matrix.update mat i j (fun x -> x +. pr))
        (choice m i k).probs)
    p;
  mat

let evaluate ?(ref_state = 0) m p =
  if Array.length p <> m.n then invalid_arg "Dtmdp.evaluate: dimension mismatch";
  if ref_state < 0 || ref_state >= m.n then
    invalid_arg "Dtmdp.evaluate: bad reference state";
  let pm = transition_matrix m p in
  (* Unknowns: x_j = v_j (j <> ref), x_ref = g.
     Equation i:  v_i - sum_j P_ij v_j + g = c_i  with v_ref = 0. *)
  let a =
    Matrix.init m.n m.n (fun i j ->
        if j = ref_state then 1.0
        else (if i = j then 1.0 else 0.0) -. Matrix.get pm i j)
  in
  let b = Vec.init m.n (fun i -> (choice m i p.(i)).cost) in
  let x = Lu.solve a b in
  let bias = Vec.init m.n (fun j -> if j = ref_state then 0.0 else x.(j)) in
  { gain = x.(ref_state); bias }

let stationary_distribution m p =
  let pm = transition_matrix m p in
  (* P - I is a generator (rows sum to 0, off-diagonal >= 0); its
     stationary distribution equals the DTMC's. *)
  let q =
    Dpm_ctmc.Generator.of_matrix ~tol:1e-7
      (Matrix.mapi (fun i j x -> if i = j then x -. 1.0 else x) pm)
  in
  Dpm_ctmc.Steady_state.solve q

let improve m (e : evaluation) ~incumbent =
  let changed = ref 0 in
  let next =
    Array.mapi
      (fun i current ->
        let q_value k =
          let c = choice m i k in
          List.fold_left
            (fun acc (j, pr) -> acc +. (pr *. e.bias.(j)))
            c.cost c.probs
        in
        let best = ref current and best_value = ref (q_value current) in
        for k = 0 to num_choices m i - 1 do
          if k <> current then begin
            let v = q_value k in
            if v < !best_value -. 1e-9 then begin
              best := k;
              best_value := v
            end
          end
        done;
        if !best <> current then incr changed;
        !best)
      incumbent
  in
  (next, !changed)

type result = { policy : policy; gain : float; bias : Vec.t; iterations : int }

let solve ?ref_state ?(max_iter = 1000) ?init m =
  let init = match init with Some p -> Array.copy p | None -> Array.make m.n 0 in
  let rec loop iteration p =
    if iteration > max_iter then
      raise
        (Solver_error.Nonconvergent
           { solver = "Dtmdp.solve"; iterations = max_iter; residual = Float.nan });
    let e = evaluate ?ref_state m p in
    let next, changed = improve m e ~incumbent:p in
    if changed = 0 then { policy = p; gain = e.gain; bias = e.bias; iterations = iteration }
    else loop (iteration + 1) next
  in
  loop 1 init
