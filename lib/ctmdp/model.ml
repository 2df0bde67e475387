type choice = { action : int; rates : (int * float) list; cost : float }

type t = { n : int; table : choice array array }

type report = code:string -> site:string -> string -> unit

let fail (report : report) ~code ~site fmt =
  Printf.ksprintf (report ~code ~site) fmt

(* Sites are formatted only when a finding fires: a clean model
   allocates no string. *)
let choice_site state k = Printf.sprintf "state %d, choice %d" state k
let state_site state = Printf.sprintf "state %d" state

let rec check_rates report ~num_states ~state k = function
  | [] -> ()
  | (j, r) :: rest ->
      if j < 0 || j >= num_states then
        fail report ~code:"bad-target" ~site:(choice_site state k)
          "rate targets state %d of %d" j num_states
      else if j = state then
        fail report ~code:"bad-target" ~site:(choice_site state k)
          "self-rate (diagonal is implied)"
      else if not (Float.is_finite r) then
        fail report ~code:"bad-rate" ~site:(choice_site state k)
          "rate to state %d is %g" j r
      else if r < 0.0 then
        fail report ~code:"bad-rate" ~site:(choice_site state k)
          "rate to state %d is negative (%g)" j r;
      check_rates report ~num_states ~state k rest

(* The index of the first of choices [i .. k-1] labelled [action]. *)
let rec first_label (cs : choice array) action k i =
  if i >= k then None
  else if cs.(i).action = action then Some i
  else first_label cs action k (i + 1)

let check_state ~num_states state cs report =
  if Array.length cs = 0 then
    report ~code:"empty-choice" ~site:(state_site state) "no choices"
  else
    for k = 0 to Array.length cs - 1 do
      let c = cs.(k) in
      (match first_label cs c.action k 0 with
      | Some k0 ->
          fail report ~code:"duplicate-action" ~site:(state_site state)
            "choices %d and %d both carry action label %d" k0 k c.action
      | None -> ());
      if not (Float.is_finite c.cost) then
        fail report ~code:"non-finite-cost" ~site:(choice_site state k)
          "cost rate is %g" c.cost;
      check_rates report ~num_states ~state k c.rates
    done

let check m report =
  Array.iteri (fun i cs -> check_state ~num_states:m.n i cs report) m.table

let create ~num_states choices_of =
  if num_states <= 0 then invalid_arg "Ctmdp.Model.create: no states";
  let first ~code ~site msg =
    invalid_arg (Printf.sprintf "Ctmdp.Model.create: %s at %s: %s" code site msg)
  in
  let table =
    Array.init num_states (fun i ->
        let cs = Array.of_list (choices_of i) in
        check_state ~num_states i cs first;
        cs)
  in
  { n = num_states; table }

let num_states m = m.n
let num_choices m i = Array.length m.table.(i)

let choice m i k =
  if i < 0 || i >= m.n then invalid_arg "Ctmdp.Model.choice: bad state";
  if k < 0 || k >= Array.length m.table.(i) then
    invalid_arg
      (Printf.sprintf "Ctmdp.Model.choice: state %d has no choice %d" i k);
  m.table.(i).(k)

let choices m i =
  if i < 0 || i >= m.n then invalid_arg "Ctmdp.Model.choices: bad state";
  Array.to_list m.table.(i)

let find_choice m i ~action =
  let rec scan k =
    if k >= Array.length m.table.(i) then None
    else if m.table.(i).(k).action = action then Some k
    else scan (k + 1)
  in
  if i < 0 || i >= m.n then invalid_arg "Ctmdp.Model.find_choice: bad state";
  scan 0

let total_choices m =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 m.table

let exit_rate c = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 c.rates

let max_exit_rate m =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc c -> Float.max acc (exit_rate c)) acc row)
    0.0 m.table

let map_costs f m =
  {
    m with
    table =
      Array.mapi
        (fun i row -> Array.map (fun c -> { c with cost = f i c }) row)
        m.table;
  }

let pp ppf m =
  Format.fprintf ppf "CTMDP: %d states, %d state-action pairs, max exit rate %g"
    m.n (total_choices m) (max_exit_rate m)
