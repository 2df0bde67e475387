open Dpm_linalg

type kind =
  | Nan_rate
  | Negative_rate
  | Nan_cost
  | Empty_choice
  | Bad_target
  | Duplicate_action
  | Zero_row
  | Nan_entry
  | Duplicate_row
  | Stall

let all_kinds =
  [
    Nan_rate;
    Negative_rate;
    Nan_cost;
    Empty_choice;
    Bad_target;
    Duplicate_action;
    Zero_row;
    Nan_entry;
    Duplicate_row;
    Stall;
  ]

let kind_to_string = function
  | Nan_rate -> "nan-rate"
  | Negative_rate -> "negative-rate"
  | Nan_cost -> "nan-cost"
  | Empty_choice -> "empty-choice"
  | Bad_target -> "bad-target"
  | Duplicate_action -> "duplicate-action"
  | Zero_row -> "zero-row"
  | Nan_entry -> "nan-entry"
  | Duplicate_row -> "duplicate-row"
  | Stall -> "stall"

let kind_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun k -> kind_to_string k = s) all_kinds

type plan = { seed : int64; kinds : kind list }

let plan ?(seed = 0xD1CEL) kinds = { seed; kinds }

let has plan k = List.mem k plan.kinds

let of_env () =
  match Sys.getenv_opt "DPM_FAULTS" with
  | None | Some "" -> None
  | Some spec ->
      let seed =
        match Sys.getenv_opt "DPM_FAULTS_SEED" with
        | None | Some "" -> 0xD1CEL
        | Some s -> (
            match Int64.of_string_opt (String.trim s) with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "DPM_FAULTS_SEED: %S is not an integer" s))
      in
      let kinds =
        String.split_on_char ',' spec
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun s ->
               match kind_of_string s with
               | Some k -> k
               | None ->
                   invalid_arg
                     (Printf.sprintf
                        "DPM_FAULTS: unknown fault %S (known: %s)" s
                        (String.concat ", "
                           (List.map kind_to_string all_kinds))))
      in
      if kinds = [] then None else Some { seed; kinds }

let injected kind =
  Dpm_obs.Probe.incr ("fault.injected." ^ kind_to_string kind);
  Dpm_trace.Provenance.note_fault ();
  if Dpm_trace.Recorder.enabled () then
    Dpm_trace.Recorder.instant "fault.injected"
      ~args:[ ("kind", Dpm_trace.Event.Str (kind_to_string kind)) ]

(* Derive one sub-seed per fault kind, so adding a kind to the plan
   does not move where the other kinds strike. *)
let rng_for plan kind =
  let tag = Hashtbl.hash (kind_to_string kind) in
  Dpm_prob.Rng.create (Int64.add plan.seed (Int64.of_int tag))

let corrupt_choices plan ~num_states choices_of =
  let pick_state kind = Dpm_prob.Rng.int (rng_for plan kind) num_states in
  let victims =
    List.filter_map
      (fun kind ->
        match kind with
        | Nan_rate | Negative_rate | Nan_cost | Empty_choice | Bad_target
        | Duplicate_action ->
            Some (kind, pick_state kind)
        | Zero_row | Nan_entry | Duplicate_row | Stall -> None)
      plan.kinds
  in
  let corrupt_first_rate v (c : Dpm_ctmdp.Model.choice) =
    match c.Dpm_ctmdp.Model.rates with
    | [] -> { c with Dpm_ctmdp.Model.rates = [ (0, v) ] }
    | (j, _) :: rest -> { c with Dpm_ctmdp.Model.rates = (j, v) :: rest }
  in
  let apply kind (cs : Dpm_ctmdp.Model.choice list) =
    injected kind;
    match (kind, cs) with
    | Empty_choice, _ -> []
    | _, [] -> []
    | Nan_rate, c :: rest -> corrupt_first_rate Float.nan c :: rest
    | Negative_rate, c :: rest -> corrupt_first_rate (-1.0) c :: rest
    | Nan_cost, c :: rest ->
        { c with Dpm_ctmdp.Model.cost = Float.nan } :: rest
    | Bad_target, c :: rest ->
        {
          c with
          Dpm_ctmdp.Model.rates =
            (num_states, 1.0) :: c.Dpm_ctmdp.Model.rates;
        }
        :: rest
    | Duplicate_action, c :: rest -> c :: c :: rest
    | (Zero_row | Nan_entry | Duplicate_row | Stall), cs -> cs
  in
  fun i ->
    List.fold_left
      (fun cs (kind, victim) -> if i = victim then apply kind cs else cs)
      (choices_of i) victims

let corrupt_matrix plan m =
  let n = Matrix.rows m in
  let out = Matrix.copy m in
  if n > 0 then
    List.iter
      (fun kind ->
        let rng = rng_for plan kind in
        match kind with
        | Zero_row ->
            injected kind;
            let r = Dpm_prob.Rng.int rng n in
            for j = 0 to Matrix.cols out - 1 do
              Matrix.set out r j 0.0
            done
        | Nan_entry ->
            injected kind;
            let r = Dpm_prob.Rng.int rng n in
            let c = Dpm_prob.Rng.int rng (Matrix.cols out) in
            Matrix.set out r c Float.nan
        | Duplicate_row ->
            if n > 1 then begin
              injected kind;
              let r1 = Dpm_prob.Rng.int rng n in
              let r2 = (r1 + 1 + Dpm_prob.Rng.int rng (n - 1)) mod n in
              for j = 0 to Matrix.cols out - 1 do
                Matrix.set out r2 j (Matrix.get out r1 j)
              done
            end
        | Nan_rate | Negative_rate | Nan_cost | Empty_choice | Bad_target
        | Duplicate_action | Stall ->
            ())
      plan.kinds;
  out

let stall_seconds = 0.002

let stall () =
  injected Stall;
  (* Busy-wait: a deterministic per-tick time sink that makes any
     iteration budget meaningless — exactly what a deadline guard
     must catch.  [Probe.now] is the same clock the deadline reads. *)
  let t0 = Dpm_obs.Probe.now () in
  while Dpm_obs.Probe.now () -. t0 < stall_seconds do
    ()
  done
