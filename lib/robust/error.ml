type t =
  | Singular
  | Nonconvergent of { iterations : int; residual : float }
  | Cycling
  | Invalid_model of Diagnostic.t list
  | Deadline_exceeded of { budget_s : float; elapsed_s : float }
  | Non_finite of string

exception Deadline_signal of { budget_s : float; elapsed_s : float }
exception Non_finite_signal of string

let pp ppf = function
  | Singular -> Format.pp_print_string ppf "singular linear system"
  | Nonconvergent { iterations; residual } ->
      Format.fprintf ppf "no convergence after %d iterations (residual %g)"
        iterations residual
  | Cycling -> Format.pp_print_string ppf "simplex cycling (pivot budget hit twice)"
  | Invalid_model ds ->
      Format.fprintf ppf "invalid model (%d finding%s):%a" (List.length ds)
        (if List.length ds = 1 then "" else "s")
        (fun ppf ->
          List.iter (fun d -> Format.fprintf ppf "@\n  %a" Diagnostic.pp d))
        ds
  | Deadline_exceeded { budget_s; elapsed_s } ->
      Format.fprintf ppf "deadline exceeded (budget %gs, elapsed %gs)" budget_s
        elapsed_s
  | Non_finite site -> Format.fprintf ppf "non-finite value at %s" site

let to_string e = Format.asprintf "%a" pp e

(* One process exit code per error class — the contract between
   dpm_cli, the serve daemon's supervisor, and CI.  3 predates this
   mapping (the sweep deadline path documented it first); the rest
   extend the sequence.  1 and 2 stay reserved for generic failures
   and infeasibility respectively. *)
let exit_code = function
  | Deadline_exceeded _ -> 3
  | Singular -> 4
  | Nonconvergent _ -> 5
  | Cycling -> 6
  | Invalid_model _ -> 7
  | Non_finite _ -> 8

let class_name = function
  | Singular -> "singular"
  | Nonconvergent _ -> "nonconvergent"
  | Cycling -> "cycling"
  | Invalid_model _ -> "invalid-model"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Non_finite _ -> "non-finite"

let of_exn = function
  (* Never swallow runtime-fatal conditions: the caller must see
     these, not a typed solver error. *)
  | Out_of_memory | Stack_overflow | Assert_failure _ | Sys.Break -> None
  | Deadline_signal { budget_s; elapsed_s } ->
      Some (Deadline_exceeded { budget_s; elapsed_s })
  | Non_finite_signal site -> Some (Non_finite site)
  | Dpm_linalg.Lu.Singular _ -> Some Singular
  | Dpm_linalg.Simplex.Cycling _ -> Some Cycling
  | Dpm_ctmdp.Solver_error.Nonconvergent { iterations; residual; _ } ->
      Some (Nonconvergent { iterations; residual })
  | Dpm_ctmdp.Solver_error.Lp_infeasible msg ->
      Some
        (Invalid_model [ Diagnostic.error ~code:"lp-infeasible" ~site:"lp" msg ])
  | Dpm_ctmdp.Solver_error.Lp_unbounded msg ->
      Some
        (Invalid_model [ Diagnostic.error ~code:"lp-unbounded" ~site:"lp" msg ])
  | Dpm_ctmc.Generator.Invalid msg ->
      Some
        (Invalid_model
           [ Diagnostic.error ~code:"invalid-generator" ~site:"generator" msg ])
  | Dpm_ctmc.Steady_state.Not_irreducible msg ->
      Some
        (Invalid_model
           [ Diagnostic.error ~code:"not-unichain" ~site:"chain" msg ])
  | Invalid_argument msg ->
      Some
        (Invalid_model
           [ Diagnostic.error ~code:"invalid-argument" ~site:"model" msg ])
  | Failure msg ->
      Some
        (Invalid_model [ Diagnostic.error ~code:"failure" ~site:"solver" msg ])
  | exn ->
      Some
        (Invalid_model
           [
             Diagnostic.error ~code:"unexpected-exception" ~site:"solver"
               (Printexc.to_string exn);
           ])
