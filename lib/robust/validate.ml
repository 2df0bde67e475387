open Dpm_linalg
open Dpm_core

let max_diagnostics = 100

(* Collector capping the report size — a fully corrupted large model
   should not produce megabytes of findings. *)
type collector = { mutable diags : Diagnostic.t list; mutable count : int }

let collector () = { diags = []; count = 0 }

let push c d =
  c.count <- c.count + 1;
  if c.count <= max_diagnostics then c.diags <- d :: c.diags
  else if c.count = max_diagnostics + 1 then
    c.diags <-
      Diagnostic.warning ~code:"truncated" ~site:"report"
        (Printf.sprintf "more than %d findings; further ones dropped"
           max_diagnostics)
      :: c.diags

let finish c = List.rev c.diags

let errf c ~code ~site fmt =
  Printf.ksprintf (fun msg -> push c (Diagnostic.error ~code ~site msg)) fmt

let warnf c ~code ~site fmt =
  Printf.ksprintf (fun msg -> push c (Diagnostic.warning ~code ~site msg)) fmt

(* --- CTMDP choice tables ------------------------------------------- *)

(* Sites are formatted only when a finding fires: a clean model
   allocates no string. *)
let choice_site state k = Printf.sprintf "state %d, choice %d" state k
let state_site state = Printf.sprintf "state %d" state

let check_choice c ~num_states ~state k (ch : Dpm_ctmdp.Model.choice) =
  if not (Float.is_finite ch.Dpm_ctmdp.Model.cost) then
    errf c ~code:"non-finite-cost" ~site:(choice_site state k)
      "cost rate is %g" ch.Dpm_ctmdp.Model.cost;
  List.iter
    (fun (j, r) ->
      if j < 0 || j >= num_states then
        errf c ~code:"bad-target" ~site:(choice_site state k)
          "rate targets state %d of %d" j num_states
      else if j = state then
        errf c ~code:"bad-target" ~site:(choice_site state k)
          "self-rate (diagonal is implied)"
      else if not (Float.is_finite r) then
        errf c ~code:"bad-rate" ~site:(choice_site state k)
          "rate to state %d is %g" j r
      else if r < 0.0 then
        errf c ~code:"bad-rate" ~site:(choice_site state k)
          "rate to state %d is negative (%g)" j r)
    ch.Dpm_ctmdp.Model.rates

(* The index of the first of the first [k] choices labelled [action]. *)
let rec first_label action k i = function
  | (ch : Dpm_ctmdp.Model.choice) :: rest when i < k ->
      if ch.Dpm_ctmdp.Model.action = action then Some i
      else first_label action k (i + 1) rest
  | _ -> None

let check_state_choices c ~num_states state (cs : Dpm_ctmdp.Model.choice list) =
  if cs = [] then errf c ~code:"empty-choice" ~site:(state_site state) "no choices"
  else
    List.iteri
      (fun k ch ->
        let action = ch.Dpm_ctmdp.Model.action in
        (match first_label action k 0 cs with
        | Some k0 ->
            errf c ~code:"duplicate-action" ~site:(state_site state)
              "choices %d and %d both carry action label %d" k0 k action
        | None -> ());
        check_choice c ~num_states ~state k ch)
      cs

(* Unichain reachability on the union graph: if even the union of all
   choices' rates has several closed classes, every policy does, and
   no average-cost problem on the model is well posed (Theorem 2.1 /
   the paper's connectivity argument).  Necessary, not sufficient —
   the per-policy singular case is handled at solve time by the
   Tikhonov ladder.  Runs only on a structurally clean table, so every
   target is in range and every rate finite. *)
let check_unichain c choices_by_state =
  let succ =
    Array.map
      (fun cs ->
        Array.of_list
          (List.fold_left
             (fun acc (ch : Dpm_ctmdp.Model.choice) ->
               List.fold_left
                 (fun acc (j, r) -> if r > 0.0 then j :: acc else acc)
                 acc ch.Dpm_ctmdp.Model.rates)
             [] cs))
      choices_by_state
  in
  match Dpm_ctmc.Structure.closed_classes succ with
  | [] | [ _ ] -> ()
  | classes ->
      errf c ~code:"not-unichain" ~site:"union graph"
        "the union of all choices has %d closed classes; no policy can be \
         unichain"
        (List.length classes)

let choices ~num_states choices_of =
  let c = collector () in
  if num_states <= 0 then begin
    errf c ~code:"empty-model" ~site:"model" "num_states = %d" num_states;
    finish c
  end
  else begin
    let table =
      Array.init num_states (fun i ->
          match choices_of i with
          | cs -> cs
          | exception exn ->
              errf c ~code:"choices-raised" ~site:(state_site i)
                "%s" (Printexc.to_string exn);
              [])
    in
    Array.iteri (fun i cs -> check_state_choices c ~num_states i cs) table;
    if Diagnostic.errors c.diags = [] then check_unichain c table;
    finish c
  end

let model m =
  choices
    ~num_states:(Dpm_ctmdp.Model.num_states m)
    (Dpm_ctmdp.Model.choices m)

let model_r ~num_states choices_of =
  Dpm_obs.Probe.time "robust.validate_seconds" @@ fun () ->
  match Diagnostic.errors (choices ~num_states choices_of) with
  | [] -> Guard.run ~stage:"model-build" (fun () ->
        Dpm_ctmdp.Model.create ~num_states choices_of)
  | errs ->
      Dpm_obs.Probe.incr "robust.models_rejected";
      Error (Error.Invalid_model errs)

(* --- generator matrices -------------------------------------------- *)

let generator_matrix ?(tol = 1e-9) m =
  let c = collector () in
  let n = Matrix.rows m in
  if Matrix.cols m <> n then begin
    errf c ~code:"not-square" ~site:"matrix" "%dx%d" n (Matrix.cols m);
    finish c
  end
  else begin
    for i = 0 to n - 1 do
      let site = Printf.sprintf "row %d" i in
      let sum = ref 0.0 in
      let scale = ref 0.0 in
      let finite = ref true in
      for j = 0 to n - 1 do
        let x = Matrix.get m i j in
        if not (Float.is_finite x) then begin
          finite := false;
          errf c ~code:"non-finite-entry" ~site "entry (%d,%d) is %g" i j x
        end
        else begin
          if j <> i && x < 0.0 then
            errf c ~code:"negative-rate" ~site "entry (%d,%d) is %g" i j x;
          sum := !sum +. x;
          scale := Float.max !scale (Float.abs x)
        end
      done;
      if !finite then
        if !scale = 0.0 then
          warnf c ~code:"absorbing-state" ~site "row is all zero"
        else if Float.abs !sum > tol *. Float.max 1.0 !scale then
          errf c ~code:"row-sum" ~site "row sums to %g (scale %g)" !sum !scale
    done;
    finish c
  end

(* --- the composed DPM system --------------------------------------- *)

(* The raw choice table [to_ctmdp] would hand the solvers, exposed so
   the fault harness can corrupt it {e before} [Model.create]'s own
   validation sees it. *)
let system_choices sys ~weight =
  let states = Sys_model.states sys in
  fun i ->
    let x = states.(i) in
    List.map
      (fun a ->
        {
          Dpm_ctmdp.Model.action = a;
          rates = Sys_model.transitions sys x ~action:a;
          cost = Sys_model.cost sys ~weight x ~action:a;
        })
      (Sys_model.valid_actions sys x)

let pp_state_str sys x = Format.asprintf "%a" (Sys_model.pp_state sys) x

(* The paper's three Section-III action-validity constraints,
   re-derived from the SP quadruple and checked against the action
   sets the system model actually offers.  An empty action set is also
   an error (the paper requires every state to keep at least one
   command). *)
let check_actions c sys =
  let sp = Sys_model.sp sys in
  let q_cap = Sys_model.queue_capacity sys in
  let site x = pp_state_str sys x in
  Array.iter
    (fun x ->
      let actions = Sys_model.valid_actions sys x in
      if actions = [] then
        errf c ~code:"no-actions" ~site:(site x) "empty action set";
      List.iter
        (fun a ->
          if a < 0 || a >= Service_provider.num_modes sp then
            errf c ~code:"bad-action" ~site:(site x) "action %d is not a mode"
              a
          else
            match x with
            | Sys_model.Stable (s, q) ->
                if Service_provider.is_active sp s then begin
                  (* (1) service must not be interrupted *)
                  if not (Service_provider.is_active sp a) then
                    errf c ~code:"c1-interrupts-service" ~site:(site x)
                      "active mode %s commanded to inactive %s"
                      (Service_provider.name sp s)
                      (Service_provider.name sp a)
                end
                else if q = q_cap then begin
                  (* (2) full queue: an inactive SP must make progress *)
                  if a = s then
                    errf c ~code:"c2-no-progress" ~site:(site x)
                      "full queue but inactive mode %s may stay"
                      (Service_provider.name sp s)
                  else if
                    (not (Service_provider.is_active sp a))
                    && Service_provider.wakeup_time sp a
                       >= Service_provider.wakeup_time sp s
                  then
                    errf c ~code:"c2-no-progress" ~site:(site x)
                      "full queue but %s -> %s does not shorten the wakeup \
                       (%g >= %g)"
                      (Service_provider.name sp s)
                      (Service_provider.name sp a)
                      (Service_provider.wakeup_time sp a)
                      (Service_provider.wakeup_time sp s)
                end
            | Sys_model.Transfer (s, q) ->
                (* (3) full transfer: no strictly slower active mode *)
                if
                  q = q_cap
                  && Service_provider.is_active sp a
                  && Service_provider.service_rate sp a
                     < Service_provider.service_rate sp s
                then
                  errf c ~code:"c3-slower-service" ~site:(site x)
                    "full transfer from %s may switch to slower active %s \
                     (mu %g < %g)"
                    (Service_provider.name sp s)
                    (Service_provider.name sp a)
                    (Service_provider.service_rate sp a)
                    (Service_provider.service_rate sp s))
        actions)
    (Sys_model.states sys)

let system sys =
  Dpm_obs.Probe.time "robust.validate_seconds" @@ fun () ->
  let c = collector () in
  check_actions c sys;
  (* Generator invariants + unichain reachability, via the same raw
     choice table the solvers consume. *)
  let n = Sys_model.num_states sys in
  let raw = system_choices sys ~weight:0.0 in
  let structural = choices ~num_states:n raw in
  List.iter (push c) structural;
  finish c
