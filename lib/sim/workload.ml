open Dpm_prob

type kind =
  | Poisson of float
  | Piecewise of {
      segments : (float * float) list;
      final_rate : float;
      max_rate : float; (* thinning envelope *)
      last_boundary : float; (* 0 with no segments *)
    }
  | Mmpp of {
      rates : float array;
      switch_rate : float array array;
      mutable phase : int;
      mutable phase_until : float option;
          (* time of the next phase switch, sampled lazily *)
    }
  | Trace of { mutable remaining : float list }

(* [last_now] is a [float ref] (a one-field float record, stored
   flat) so the per-arrival clock check writes no box. *)
type t = { kind : kind; last_now : float ref }

let check_rate r =
  if r <= 0.0 || not (Float.is_finite r) then
    invalid_arg "Workload: rates must be positive and finite"

(* Piecewise segments may be silent: a fleet dispatcher routes rate 0
   to a server while it is deactivated. *)
let check_rate_nonneg r =
  if r < 0.0 || not (Float.is_finite r) then
    invalid_arg "Workload: rates must be nonnegative and finite"

let poisson ~rate =
  check_rate rate;
  { kind = Poisson rate; last_now = ref neg_infinity }

let piecewise ~segments ~final_rate =
  check_rate_nonneg final_rate;
  let rec check_boundaries prev = function
    | [] -> ()
    | (until, rate) :: rest ->
        check_rate_nonneg rate;
        if until <= prev then
          invalid_arg "Workload.piecewise: boundaries must increase";
        check_boundaries until rest
  in
  check_boundaries 0.0 segments;
  let max_rate =
    List.fold_left (fun acc (_, r) -> Float.max acc r) final_rate segments
  in
  let last_boundary = List.fold_left (fun _ (until, _) -> until) 0.0 segments in
  {
    kind = Piecewise { segments; final_rate; max_rate; last_boundary };
    last_now = ref neg_infinity;
  }

let mmpp ~rates ~switch_rate =
  if Array.length rates < 2 then invalid_arg "Workload.mmpp: need >= 2 phases";
  Array.iter check_rate rates;
  let n = Array.length rates in
  if Array.length switch_rate <> n then
    invalid_arg "Workload.mmpp: switch_rate shape mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg "Workload.mmpp: switch_rate shape mismatch";
      Array.iteri
        (fun j r ->
          if i <> j && (r < 0.0 || not (Float.is_finite r)) then
            invalid_arg "Workload.mmpp: negative switch rate")
        row)
    switch_rate;
  {
    kind = Mmpp { rates; switch_rate; phase = 0; phase_until = None };
    last_now = ref neg_infinity;
  }

let trace times =
  let rec check prev = function
    | [] -> ()
    | t :: rest ->
        (* [t <= prev] is false for NaN: test finiteness first. *)
        if not (Float.is_finite t) then
          invalid_arg "Workload.trace: times must be finite";
        if t <= prev then invalid_arg "Workload.trace: times must increase";
        check t rest
  in
  check 0.0 times;
  { kind = Trace { remaining = times }; last_now = ref neg_infinity }

let of_intervals gaps =
  List.iter
    (fun g ->
      if g <= 0.0 || not (Float.is_finite g) then
        invalid_arg "Workload.of_intervals: gaps must be positive and finite")
    gaps;
  let _, times =
    List.fold_left (fun (t, acc) g -> (t +. g, (t +. g) :: acc)) (0.0, []) gaps
  in
  trace (List.rev times)

let load_trace ?(intervals = false) path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec read acc =
        match input_line ic with
        | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then read acc
            else
              match float_of_string_opt line with
              | Some t -> read (t :: acc)
              | None ->
                  Error (Printf.sprintf "bad timestamp %S in %s" line path))
        | exception End_of_file -> Ok (List.rev acc)
      in
      let r = read [] in
      close_in ic;
      Result.bind r (fun values ->
          match if intervals then of_intervals values else trace values with
          | w -> Ok w
          | exception Invalid_argument msg -> Error msg)

(* The piecewise grammar shared by `dpm_cli simulate --workload
   piecewise:...`, `dpm_cli adapt --segments ...` and the bench adapt
   section: comma-separated [rate@until] entries (strictly increasing
   boundaries) with a bare trailing [rate] as the final rate. *)
let segments_of_spec spec =
  let entries = String.split_on_char ',' (String.trim spec) in
  let parse_entry e =
    match String.split_on_char '@' (String.trim e) with
    | [ r ] -> (
        match float_of_string_opt r with
        | Some r -> Ok (r, None)
        | None -> Error (Printf.sprintf "bad rate %S" r))
    | [ r; u ] -> (
        match (float_of_string_opt r, float_of_string_opt u) with
        | Some r, Some u -> Ok (r, Some u)
        | _ -> Error (Printf.sprintf "bad segment %S (want RATE@UNTIL)" e))
    | _ -> Error (Printf.sprintf "bad segment %S (want RATE@UNTIL)" e)
  in
  let rec build acc = function
    | [] -> Error "empty segment list"
    | [ last ] -> (
        match parse_entry last with
        | Error _ as e -> e
        | Ok (r, None) -> Ok (List.rev acc, r)
        | Ok (_, Some _) ->
            Error
              (Printf.sprintf
                 "last entry %S must be a bare final rate (no @)" last))
    | e :: rest -> (
        match parse_entry e with
        | Error _ as err -> err
        | Ok (_, None) ->
            Error (Printf.sprintf "entry %S needs a boundary (RATE@UNTIL)" e)
        | Ok (r, Some u) -> build ((u, r) :: acc) rest)
  in
  Result.bind (build [] entries) (fun (segments, final_rate) ->
      match piecewise ~segments ~final_rate with
      | _ -> Ok (segments, final_rate)
      | exception Invalid_argument msg -> Error msg)

let of_spec ~rate spec =
  let prefix p s =
    let lp = String.length p in
    if String.length s >= lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  match spec with
  | "poisson" -> (
      match poisson ~rate with
      | w -> Ok w
      | exception Invalid_argument msg -> Error msg)
  | s -> (
      match prefix "piecewise:" s with
      | Some body ->
          Result.map
            (fun (segments, final_rate) -> piecewise ~segments ~final_rate)
            (segments_of_spec body)
      | None -> (
          match prefix "mmpp:" s with
          | Some body -> (
              match String.split_on_char ':' body with
              | [ r1; r2; sw ] -> (
                  match
                    ( float_of_string_opt r1,
                      float_of_string_opt r2,
                      float_of_string_opt sw )
                  with
                  | Some r1, Some r2, Some sw
                    when r1 > 0.0 && r2 > 0.0 && sw > 0.0 ->
                      Ok
                        (mmpp ~rates:[| r1; r2 |]
                           ~switch_rate:[| [| 0.0; sw |]; [| sw; 0.0 |] |])
                  | _ ->
                      Error
                        (Printf.sprintf
                           "bad mmpp spec %S (mmpp:<r1>:<r2>:<switch>)" spec))
              | _ ->
                  Error
                    (Printf.sprintf "bad mmpp spec %S (mmpp:<r1>:<r2>:<switch>)"
                       spec))
          | None -> (
              match prefix "trace-file:" s with
              | Some path -> load_trace path
              | None -> (
                  match prefix "intervals-file:" s with
                  | Some path -> load_trace ~intervals:true path
                  | None ->
                      Error
                        (Printf.sprintf
                           "unknown workload %S (try: poisson, \
                            piecewise:<r1>@<t1>,...,<rfinal>, \
                            mmpp:<r1>:<r2>:<switch>, trace-file:<path>, \
                            intervals-file:<path>)"
                           spec)))))

let rec rate_at segments final_rate t =
  match segments with
  | [] -> final_rate
  | (until, rate) :: rest ->
      if t < until then rate else rate_at rest final_rate t

(* Thinning against the maximum rate keeps the stream exact for the
   inhomogeneous process.  Zero-rate segments reject every candidate
   ([ratio > 0.0] — [Rng.float] can return exactly 0, which must not
   sneak an arrival through), and once the clock passes the last
   boundary of an all-quiet tail the stream ends instead of thinning
   forever.  Top-level, so a draw allocates no closure. *)
let rec thin rng segments final_rate max_rate last_boundary t =
  let t = t +. Dist.exponential_sample rng ~rate:max_rate in
  if final_rate <= 0.0 && t >= last_boundary then None
  else
    let ratio = rate_at segments final_rate t /. max_rate in
    if ratio > 0.0 && Rng.float rng <= ratio then Some t
    else thin rng segments final_rate max_rate last_boundary t

let next_arrival w rng ~now =
  if now < !(w.last_now) then
    invalid_arg "Workload.next_arrival: time moved backwards";
  w.last_now := now;
  match w.kind with
  | Poisson rate -> Some (now +. Dist.exponential_sample rng ~rate)
  | Piecewise { segments; final_rate; max_rate; last_boundary } ->
      if max_rate <= 0.0 then None
      else thin rng segments final_rate max_rate last_boundary now
  | Mmpp m ->
      (* Race the next arrival (at the phase's rate) against the next
         phase switch; iterate across switches until an arrival wins. *)
      let rec walk t =
        let phase_exit =
          Array.fold_left ( +. ) 0.0 m.switch_rate.(m.phase)
          -. m.switch_rate.(m.phase).(m.phase)
        in
        let switch_at =
          match m.phase_until with
          | Some u when u > t -> u
          | _ ->
              if phase_exit <= 0.0 then infinity
              else t +. Dist.exponential_sample rng ~rate:phase_exit
        in
        let arrival_at = t +. Dist.exponential_sample rng ~rate:m.rates.(m.phase) in
        if arrival_at <= switch_at then begin
          m.phase_until <- (if switch_at = infinity then None else Some switch_at);
          Some arrival_at
        end
        else begin
          (* Jump phases; pick the destination by rate weights. *)
          let weights =
            Array.mapi
              (fun j r -> if j = m.phase then 0.0 else r)
              m.switch_rate.(m.phase)
          in
          m.phase <- Dist.categorical_sample rng weights;
          m.phase_until <- None;
          walk switch_at
        end
      in
      walk now
  | Trace t -> (
      match t.remaining with
      | [] -> None
      | x :: rest ->
          if x <= now then
            invalid_arg "Workload.next_arrival: trace time not after now"
          else begin
            t.remaining <- rest;
            Some x
          end)

let mean_rate_hint w =
  match w.kind with
  | Poisson rate -> rate
  | Piecewise { segments; final_rate; _ } ->
      (* Time-weighted mean over the declared horizon, then the final
         rate dominates; a hint, not an exact statistic. *)
      let rec fold prev acc = function
        | [] -> (acc, prev)
        | (until, rate) :: rest -> fold until (acc +. (rate *. (until -. prev))) rest
      in
      let weighted, horizon = fold 0.0 0.0 segments in
      if horizon > 0.0 then
        (weighted +. final_rate *. horizon) /. (2.0 *. horizon)
      else final_rate
  | Mmpp m ->
      Array.fold_left ( +. ) 0.0 m.rates /. float_of_int (Array.length m.rates)
  | Trace { remaining } -> (
      match remaining with
      | [] | [ _ ] -> 0.0
      | first :: rest ->
          let last = List.fold_left (fun _ x -> x) first rest in
          if last > first then
            float_of_int (List.length rest) /. (last -. first)
          else 0.0)
