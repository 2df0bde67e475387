open Dpm_ctmc

type state = Stable of int | Transfer of int

let check_capacity capacity =
  if capacity <= 0 then
    invalid_arg "Service_queue: capacity must be at least 1"

let dim ~capacity =
  check_capacity capacity;
  (2 * capacity) + 1

let index ~capacity = function
  | Stable i ->
      check_capacity capacity;
      if i < 0 || i > capacity then
        invalid_arg (Printf.sprintf "Service_queue: stable state q_%d out of range" i);
      i
  | Transfer i ->
      check_capacity capacity;
      if i < 1 || i > capacity then
        invalid_arg
          (Printf.sprintf "Service_queue: transfer state q_{%d->%d} out of range" i
             (i - 1));
      capacity + i

let state_of_index ~capacity k =
  check_capacity capacity;
  if k < 0 || k >= dim ~capacity then
    invalid_arg (Printf.sprintf "Service_queue: index %d out of range" k);
  if k <= capacity then Stable k else Transfer (k - capacity)

let waiting_requests = function
  | Stable i -> i
  | Transfer i -> i - 1

let check_rates ~arrival_rate ~service_rate ~switch_out_rate =
  if arrival_rate < 0.0 || not (Float.is_finite arrival_rate) then
    invalid_arg "Service_queue: invalid arrival rate";
  if service_rate < 0.0 || not (Float.is_finite service_rate) then
    invalid_arg "Service_queue: invalid service rate";
  if switch_out_rate < 0.0 || not (Float.is_finite switch_out_rate) then
    invalid_arg "Service_queue: invalid switch-out rate"

let rate_list ~capacity ~arrival_rate ~service_rate ~switch_out_rate =
  check_capacity capacity;
  check_rates ~arrival_rate ~service_rate ~switch_out_rate;
  let idx = index ~capacity in
  let rates = ref [] in
  let push i j r = if r > 0.0 then rates := (i, j, r) :: !rates in
  for i = 0 to capacity do
    (* (1) arrivals between stable states *)
    if i < capacity then push (idx (Stable i)) (idx (Stable (i + 1))) arrival_rate;
    (* (2) service completion into the transfer state *)
    if i >= 1 then push (idx (Stable i)) (idx (Transfer i)) service_rate
  done;
  for i = 1 to capacity do
    (* (3) switch completion resolves the transfer *)
    push (idx (Transfer i)) (idx (Stable (i - 1))) switch_out_rate;
    (* (4) arrivals between transfer states *)
    if i < capacity then push (idx (Transfer i)) (idx (Transfer (i + 1))) arrival_rate
  done;
  !rates

let generator ~capacity ~arrival_rate ~service_rate ~switch_out_rate =
  Generator.of_rates ~dim:(dim ~capacity)
    (rate_list ~capacity ~arrival_rate ~service_rate ~switch_out_rate)

let to_dot ~capacity ~arrival_rate ~service_rate ~switch_out_rate =
  let g = generator ~capacity ~arrival_rate ~service_rate ~switch_out_rate in
  Dot.of_generator ~name:"service_queue"
    ~state_label:(fun k ->
      match state_of_index ~capacity k with
      | Stable i -> Printf.sprintf "q%d" i
      | Transfer i -> Printf.sprintf "q%d>%d" i (i - 1))
    g
