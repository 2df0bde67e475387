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

(* The two reporters through which the type modules' checks feed the
   collector. *)
let error c ~code ~site msg = push c (Diagnostic.error ~code ~site msg)
let warning c ~code ~site msg = push c (Diagnostic.warning ~code ~site msg)
let errf c ~code ~site fmt = Printf.ksprintf (error c ~code ~site) fmt

let has_errors c = List.exists Diagnostic.is_error c.diags

(* --- CTMDP choice tables ------------------------------------------- *)

(* Unichain reachability on the union graph: if even the union of all
   choices' rates has several closed classes, every policy does, and
   no average-cost problem on the model is well posed (Theorem 2.1 /
   the paper's connectivity argument).  Necessary, not sufficient —
   the per-policy singular case is handled at solve time by the
   Tikhonov ladder.  Runs only on a structurally clean table, so every
   target is in range and every rate finite. *)
let check_unichain c ~num_states ~num_choices ~choice =
  let succ =
    Array.init num_states (fun i ->
        let acc = ref [] in
        for k = 0 to num_choices i - 1 do
          List.iter
            (fun (j, r) -> if r > 0.0 then acc := j :: !acc)
            (choice i k).Dpm_ctmdp.Model.rates
        done;
        Array.of_list !acc)
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
  if num_states <= 0 then
    errf c ~code:"empty-model" ~site:"model" "num_states = %d" num_states
  else begin
    let table =
      Array.init num_states (fun i ->
          match choices_of i with
          | cs -> Array.of_list cs
          | exception exn ->
              errf c ~code:"choices-raised"
                ~site:(Printf.sprintf "state %d" i)
                "%s" (Printexc.to_string exn);
              [||])
    in
    Array.iteri
      (fun i cs -> Dpm_ctmdp.Model.check_state ~num_states i cs (error c))
      table;
    if not (has_errors c) then
      check_unichain c ~num_states
        ~num_choices:(fun i -> Array.length table.(i))
        ~choice:(fun i k -> table.(i).(k))
  end;
  finish c

let model m =
  let c = collector () in
  Dpm_ctmdp.Model.check m (error c);
  if not (has_errors c) then
    check_unichain c
      ~num_states:(Dpm_ctmdp.Model.num_states m)
      ~num_choices:(Dpm_ctmdp.Model.num_choices m)
      ~choice:(Dpm_ctmdp.Model.choice m);
  finish c

let model_r ~num_states choices_of =
  Dpm_obs.Probe.time "robust.validate_seconds" @@ fun () ->
  match Diagnostic.errors (choices ~num_states choices_of) with
  | [] ->
      Guard.run ~stage:"model-build" (fun _ ->
          Dpm_ctmdp.Model.create ~num_states choices_of)
  | errs ->
      Dpm_obs.Probe.incr "robust.models_rejected";
      Error (Error.Invalid_model errs)

(* --- generator matrices -------------------------------------------- *)

let generator_matrix m =
  let c = collector () in
  Dpm_ctmc.Generator.check m ~error:(error c) ~warning:(warning c);
  finish c

(* --- the composed DPM system --------------------------------------- *)

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
  let structural = choices ~num_states:n (Sys_model.choices sys ~weight:0.0) in
  List.iter (push c) structural;
  finish c
