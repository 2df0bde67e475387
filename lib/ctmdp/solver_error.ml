exception
  Nonconvergent of { solver : string; iterations : int; residual : float }

exception Lp_infeasible of string
exception Lp_unbounded of string

let () =
  Printexc.register_printer (function
    | Nonconvergent { solver; iterations; _ } ->
        Some
          (Printf.sprintf "%s: no convergence after %d iterations" solver
             iterations)
    | Lp_infeasible msg | Lp_unbounded msg -> Some msg
    | _ -> None)
