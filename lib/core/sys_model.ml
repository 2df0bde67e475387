open Dpm_linalg
open Dpm_ctmc

type state = Stable of int * int | Transfer of int * int

type t = {
  sp : Service_provider.t;
  queue_capacity : int;
  arrival_rate : float;
  self_switch_rate : float;
  active : int array; (* active modes, ascending *)
  active_pos : int array; (* mode -> position in [active], or -1 *)
}

let create ?(self_switch_rate = 1e6) ~sp ~queue_capacity ~arrival_rate () =
  if queue_capacity <= 0 then
    invalid_arg "Sys_model.create: queue capacity must be at least 1";
  if arrival_rate <= 0.0 || not (Float.is_finite arrival_rate) then
    invalid_arg "Sys_model.create: arrival rate must be positive and finite";
  if self_switch_rate <= 0.0 || not (Float.is_finite self_switch_rate) then
    invalid_arg "Sys_model.create: self-switch rate must be positive and finite";
  let active = Array.of_list (Service_provider.active_modes sp) in
  let active_pos = Array.make (Service_provider.num_modes sp) (-1) in
  Array.iteri (fun k s -> active_pos.(s) <- k) active;
  { sp; queue_capacity; arrival_rate; self_switch_rate; active; active_pos }

let sp sys = sys.sp
let queue_capacity sys = sys.queue_capacity
let arrival_rate sys = sys.arrival_rate
let self_switch_rate sys = sys.self_switch_rate

let with_arrival_rate sys lambda =
  if lambda <= 0.0 || not (Float.is_finite lambda) then
    invalid_arg "Sys_model.with_arrival_rate: rate must be positive and finite";
  { sys with arrival_rate = lambda }

let num_modes sys = Service_provider.num_modes sys.sp
let num_active sys = Array.length sys.active

let num_states sys =
  (num_modes sys * (sys.queue_capacity + 1)) + (num_active sys * sys.queue_capacity)

let index sys = function
  | Stable (s, i) ->
      if s < 0 || s >= num_modes sys then
        invalid_arg (Printf.sprintf "Sys_model.index: mode %d out of range" s);
      if i < 0 || i > sys.queue_capacity then
        invalid_arg (Printf.sprintf "Sys_model.index: queue length %d out of range" i);
      (s * (sys.queue_capacity + 1)) + i
  | Transfer (s, i) ->
      if s < 0 || s >= num_modes sys || sys.active_pos.(s) < 0 then
        invalid_arg
          (Printf.sprintf "Sys_model.index: transfer state of non-active mode %d" s);
      if i < 1 || i > sys.queue_capacity then
        invalid_arg
          (Printf.sprintf "Sys_model.index: transfer level %d out of range" i);
      (num_modes sys * (sys.queue_capacity + 1))
      + (sys.active_pos.(s) * sys.queue_capacity)
      + (i - 1)

let state_of_index sys k =
  let stable_count = num_modes sys * (sys.queue_capacity + 1) in
  if k < 0 || k >= num_states sys then
    invalid_arg (Printf.sprintf "Sys_model.state_of_index: %d out of range" k);
  if k < stable_count then
    Stable (k / (sys.queue_capacity + 1), k mod (sys.queue_capacity + 1))
  else begin
    let r = k - stable_count in
    Transfer (sys.active.(r / sys.queue_capacity), (r mod sys.queue_capacity) + 1)
  end

let states sys = Array.init (num_states sys) (state_of_index sys)

let mode = function Stable (s, _) -> s | Transfer (s, _) -> s

let waiting_requests = function Stable (_, i) -> i | Transfer (_, i) -> i - 1

let is_queue_full sys = function
  | Stable (_, i) -> i = sys.queue_capacity
  | Transfer (_, i) -> i = sys.queue_capacity

let all_modes sys = List.init (num_modes sys) (fun s -> s)

let valid_actions sys x =
  let sp = sys.sp in
  match x with
  | Stable (s, i) ->
      if Service_provider.is_active sp s then
        (* Constraint (1): no active -> inactive switch while stable. *)
        Service_provider.active_modes sp
      else if i < sys.queue_capacity then all_modes sys
      else
        (* Constraint (2), strict form: with a full queue an inactive
           SP must move toward service — to an active mode or to a
           strictly faster-waking inactive one. *)
        List.filter
          (fun a ->
            Service_provider.is_active sp a
            || (a <> s
               && Service_provider.wakeup_time sp a
                  < Service_provider.wakeup_time sp s))
          (all_modes sys)
  | Transfer (s, i) ->
      if i < sys.queue_capacity then all_modes sys
      else
        (* Constraint (3): in q_{Q->Q-1} no switch to a slower active
           mode. *)
        List.filter
          (fun a ->
            (not (Service_provider.is_active sp a))
            || Service_provider.service_rate sp a
               >= Service_provider.service_rate sp s)
          (all_modes sys)

let switch_out_rate sys s a =
  if a = s then sys.self_switch_rate else Service_provider.switch_rate sys.sp s a

let transitions sys x ~action =
  let sp = sys.sp in
  let q = sys.queue_capacity in
  let lam = sys.arrival_rate in
  if action < 0 || action >= num_modes sys then
    invalid_arg (Printf.sprintf "Sys_model.transitions: action %d out of range" action);
  match x with
  | Stable (s, i) ->
      let arrival = if i < q then [ (index sys (Stable (s, i + 1)), lam) ] else [] in
      let service =
        if Service_provider.is_active sp s && i >= 1 then
          [ (index sys (Transfer (s, i)), Service_provider.service_rate sp s) ]
        else []
      in
      let switch =
        if action <> s then
          [ (index sys (Stable (action, i)), Service_provider.switch_rate sp s action) ]
        else []
      in
      arrival @ service @ switch
  | Transfer (s, i) ->
      let arrival = if i < q then [ (index sys (Transfer (s, i + 1)), lam) ] else [] in
      let resolve = [ (index sys (Stable (action, i - 1)), switch_out_rate sys s action) ] in
      arrival @ resolve

let power_cost sys x ~action =
  let sp = sys.sp in
  let s = mode x in
  let base = Service_provider.power sp s in
  match x with
  | Stable _ ->
      if action = s then base
      else
        base
        +. (Service_provider.switch_rate sp s action
           *. Service_provider.switch_energy sp s action)
  | Transfer _ ->
      if action = s then base (* ene(s,s) = 0 *)
      else
        base
        +. (Service_provider.switch_rate sp s action
           *. Service_provider.switch_energy sp s action)

let cost sys ~weight x ~action =
  power_cost sys x ~action +. (weight *. float_of_int (waiting_requests x))

let to_ctmdp sys ~weight =
  if weight < 0.0 || not (Float.is_finite weight) then
    invalid_arg "Sys_model.to_ctmdp: weight must be nonnegative and finite";
  Dpm_ctmdp.Model.create ~num_states:(num_states sys) (fun k ->
      let x = state_of_index sys k in
      List.map
        (fun a ->
          {
            Dpm_ctmdp.Model.action = a;
            rates = transitions sys x ~action:a;
            cost = cost sys ~weight x ~action:a;
          })
        (valid_actions sys x))

let generator_of_actions sys ~actions =
  let rates = ref [] in
  for k = 0 to num_states sys - 1 do
    let x = state_of_index sys k in
    List.iter
      (fun (j, r) -> if r > 0.0 then rates := (k, j, r) :: !rates)
      (transitions sys x ~action:(actions x))
  done;
  Generator.of_rates ~dim:(num_states sys) !rates

let uniform_generator sys ~action =
  Generator.to_matrix (generator_of_actions sys ~actions:(fun _ -> action))

(* --- the tensor-block formula of Section III, lazily ------------------ *)

(* The canonical state order is already tensor-ordered: stable states
   are [mode-major x queue-minor] (an S x (Q+1) grid) and transfer
   states [active-position-major x level-minor] (a |S_active| x Q
   grid), so no permutation is needed, although the literal Section
   III layout puts active modes first.  And because each Kronecker
   factor carries its own rates, the lazy form handles any number of
   active modes. *)
let operator sys ~action =
  let sp = sys.sp in
  let s_count = num_modes sys in
  let q = sys.queue_capacity in
  let k = num_active sys in
  let lam = sys.arrival_rate in
  if action < 0 || action >= s_count then
    invalid_arg "Sys_model.operator: action out of range";
  (* Arrival superdiagonal over [n] queue levels — O(n) stored floats. *)
  let arrival n =
    Operator.csr
      (Sparse.of_triplets ~rows:n ~cols:n
         (List.init (max 0 (n - 1)) (fun i -> (i, i + 1, lam))))
  in
  (* SS: G_SP_off(a) (+) arrivals — the Kronecker sum of the
     off-diagonal SP generator under the uniform command and the SQ
     arrival chain (diagonals are added globally below). *)
  let g_sp_off =
    Matrix.init s_count s_count (fun s s' ->
        if s' = action && s <> s' then Service_provider.switch_rate sp s action
        else 0.0)
  in
  let ss = Operator.kron_sum (Operator.dense g_sp_off) (arrival (q + 1)) in
  let off =
    if k = 0 then ss
    else begin
      (* ST: service completions Stable(s,i) -> Transfer(s,i) at
         mu(s), as [Mu (x) P] with Mu(s, pos(s)) = mu(s) and P the
         level map i -> i-1 (row 0 empty: no service on an empty
         queue). *)
      let mu = Matrix.create s_count k in
      Array.iteri
        (fun pos s -> Matrix.set mu s pos (Service_provider.service_rate sp s))
        sys.active;
      let p_drop =
        Operator.csr
          (Sparse.of_triplets ~rows:(q + 1) ~cols:q
             (List.init q (fun i -> (i + 1, i, 1.0))))
      in
      let st = Operator.kron_prod (Operator.dense mu) p_drop in
      (* TS: transfer resolution Transfer(s, i) -> Stable(a, i-1) at
         the extended rate chi-hat(s, a) (self-switch = big M), as
         [R (x) N] with R(pos(s), a) the resolution rate and N the
         level-preserving embedding. *)
      let r = Matrix.create k s_count in
      Array.iteri
        (fun pos s -> Matrix.set r pos action (switch_out_rate sys s action))
        sys.active;
      let n_keep =
        Operator.csr
          (Sparse.of_triplets ~rows:q ~cols:(q + 1)
             (List.init q (fun i -> (i, i, 1.0))))
      in
      let ts = Operator.kron_prod (Operator.dense r) n_keep in
      (* TT: arrivals within the transfer band. *)
      let tt = Operator.kron_prod (Operator.identity k) (arrival q) in
      Operator.blocks
        ~row_dims:[| s_count * (q + 1); k * q |]
        ~col_dims:[| s_count * (q + 1); k * q |]
        [| [| Some ss; Some st |]; [| Some ts; Some tt |] |]
    end
  in
  (* Diagonal: negated exit rates, summed as [uniform_generator] sums
     a row, in column order: a stable row's two stable targets
     (arrival, switch) come before its transfer target (service), so
     the expansion matches the direct build bitwise. *)
  let n = num_states sys in
  let d = Array.make n 0.0 in
  for kx = 0 to n - 1 do
    match state_of_index sys kx with
    | Stable (s, i) ->
        let e = ref 0.0 in
        if i < q then e := !e +. lam;
        if action <> s then e := !e +. Service_provider.switch_rate sp s action;
        if Service_provider.is_active sp s && i >= 1 then
          e := !e +. Service_provider.service_rate sp s;
        d.(kx) <- -. !e
    | Transfer (s, i) ->
        let e = ref 0.0 in
        if i < q then e := !e +. lam;
        e := !e +. switch_out_rate sys s action;
        d.(kx) <- -. !e
  done;
  Operator.sum off (Operator.diag d)

(* Queue-level-major update order for Gauss-Seidel sweeps: descending
   levels, each level's stable states followed by the transfer states
   that drain {e into the level below} it.  Probability flows down the
   queue as Stable(s,i) -service-> Transfer(s,i) -resolve->
   Stable(a,i-1); in flat index order those three states live in
   different regions (stables are mode-major, transfers sit after all
   stables), so an index-order sweep moves a draining cascade one
   level per iteration.  This order chains the whole cascade inside a
   single sweep; its reverse (the backward half of a symmetric sweep)
   chains the arrival cascade the same way. *)
let sweep_order sys =
  let order = Array.make (num_states sys) 0 in
  let k = ref 0 in
  let push x =
    order.(!k) <- index sys x;
    incr k
  in
  for i = sys.queue_capacity downto 1 do
    for s = 0 to num_modes sys - 1 do
      push (Stable (s, i))
    done;
    Array.iter (fun s -> push (Transfer (s, i))) sys.active
  done;
  for s = 0 to num_modes sys - 1 do
    push (Stable (s, 0))
  done;
  order

(* The closed-loop queue under a uniform command is a birth-death
   process in the queue coordinate (arrivals at lambda, departures at
   mu(action)), so its marginal is geometric with ratio
   rho = lambda / mu.  A Gauss-Seidel iterate started from this
   product-form profile only has to correct the O(1)-level coupling
   with the transfer states, whereas the uniform 1/n start plants
   mass in the far tail that a sweep front drains one batch of levels
   at a time — iteration counts then grow linearly with Q (measured
   by the kron scaling bench). *)
let stationary_hint sys ~action =
  let n = num_states sys in
  let q = sys.queue_capacity in
  let p = Vec.create n in
  let mu = Service_provider.service_rate sys.sp action in
  let rho = if mu > 0.0 then sys.arrival_rate /. mu else infinity in
  if rho <= 1.0 then begin
    (* Underloaded: mass decays geometrically from the empty queue.
       Underflow to zero deep in the tail is fine — the tail really
       does hold no mass at machine precision. *)
    let w = ref 1.0 in
    for i = 0 to q do
      p.(index sys (Stable (action, i))) <- !w;
      w := !w *. rho
    done
  end
  else begin
    (* Overloaded (or no service): mass piles up at the full queue;
       fill the profile from the top down with the reciprocal ratio. *)
    let w = ref 1.0 in
    for i = q downto 0 do
      p.(index sys (Stable (action, i))) <- !w;
      w := !w /. rho
    done
  end;
  Vec.normalize1 p

let pp_state sys ppf = function
  | Stable (s, i) ->
      Format.fprintf ppf "(%s, q%d)" (Service_provider.name sys.sp s) i
  | Transfer (s, i) ->
      Format.fprintf ppf "(%s, q%d>%d)" (Service_provider.name sys.sp s) i (i - 1)
