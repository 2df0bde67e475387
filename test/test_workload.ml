open Dpm_sim
open Dpm_prob

let t = Alcotest.test_case

let collect w rng ~n =
  let rec go now acc k =
    if k = 0 then List.rev acc
    else
      match Workload.next_arrival w rng ~now with
      | None -> List.rev acc
      | Some t -> go t (t :: acc) (k - 1)
  in
  go 0.0 [] n

let poisson_rate_recovered () =
  let w = Workload.poisson ~rate:0.25 in
  let arrivals = collect w (Test_util.rng ()) ~n:50_000 in
  let last = List.nth arrivals (List.length arrivals - 1) in
  Test_util.check_relative ~rel:0.02 "empirical rate" 0.25
    (float_of_int (List.length arrivals) /. last)

let poisson_strictly_increasing () =
  let w = Workload.poisson ~rate:2.0 in
  let arrivals = collect w (Test_util.rng ()) ~n:1_000 in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if b <= a then Alcotest.failf "non-increasing arrivals %g %g" a b;
        check rest
    | _ -> ()
  in
  check arrivals

let piecewise_rates_by_segment () =
  (* 0..1000s at rate 2, afterwards rate 0.2. *)
  let w = Workload.piecewise ~segments:[ (1000.0, 2.0) ] ~final_rate:0.2 in
  let arrivals = collect w (Test_util.rng ()) ~n:10_000 in
  let early = List.filter (fun t -> t < 1000.0) arrivals in
  let late = List.filter (fun t -> t >= 1000.0 && t < 11_000.0) arrivals in
  Test_util.check_relative ~rel:0.1 "early segment rate" 2.0
    (float_of_int (List.length early) /. 1000.0);
  Test_util.check_relative ~rel:0.1 "late segment rate" 0.2
    (float_of_int (List.length late) /. 10_000.0)

let piecewise_validation () =
  Test_util.check_raises_invalid "non-increasing boundaries" (fun () ->
      ignore (Workload.piecewise ~segments:[ (5.0, 1.0); (3.0, 1.0) ] ~final_rate:1.0));
  Test_util.check_raises_invalid "negative rate" (fun () ->
      ignore (Workload.piecewise ~segments:[] ~final_rate:(-1.0)));
  (* Zero rates are legal since the fleet layer routes silent windows:
     an all-quiet stream is empty, not invalid. *)
  let quiet = Workload.piecewise ~segments:[] ~final_rate:0.0 in
  Alcotest.(check bool) "all-quiet stream is empty" true
    (Workload.next_arrival quiet (Test_util.rng ()) ~now:0.0 = None)

let mmpp_mean_rate_between_phases () =
  (* Symmetric two-phase MMPP switching fast relative to nothing:
     long-run rate = average of the two phase rates. *)
  let w =
    Workload.mmpp ~rates:[| 0.2; 2.0 |]
      ~switch_rate:[| [| 0.0; 0.05 |]; [| 0.05; 0.0 |] |]
  in
  let arrivals = collect w (Test_util.rng ()) ~n:60_000 in
  let last = List.nth arrivals (List.length arrivals - 1) in
  Test_util.check_relative ~rel:0.15 "long-run MMPP rate" 1.1
    (float_of_int (List.length arrivals) /. last)

let mmpp_burstier_than_poisson () =
  (* Index of dispersion of counts > 1 for an MMPP with distinct
     phase rates. *)
  let sample_counts w rng ~window ~n =
    let counts = Array.make n 0 in
    let rec go now =
      match Workload.next_arrival w rng ~now with
      | None -> ()
      | Some t ->
          let bucket = int_of_float (t /. window) in
          if bucket < n then begin
            counts.(bucket) <- counts.(bucket) + 1;
            go t
          end
    in
    go 0.0;
    counts
  in
  let dispersion counts =
    let stats = Stat.Welford.create () in
    Array.iter (fun c -> Stat.Welford.add stats (float_of_int c)) counts;
    Stat.Welford.variance stats /. Stat.Welford.mean stats
  in
  let mmpp =
    Workload.mmpp ~rates:[| 0.1; 3.0 |]
      ~switch_rate:[| [| 0.0; 0.02 |]; [| 0.02; 0.0 |] |]
  in
  let poisson = Workload.poisson ~rate:1.55 in
  let d_mmpp = dispersion (sample_counts mmpp (Test_util.rng ()) ~window:10.0 ~n:2000) in
  let d_poisson =
    dispersion (sample_counts poisson (Test_util.rng ()) ~window:10.0 ~n:2000)
  in
  Alcotest.(check bool) "MMPP over-dispersed" true (d_mmpp > 2.0 *. d_poisson);
  Alcotest.(check bool) "Poisson dispersion near 1" true
    (d_poisson > 0.7 && d_poisson < 1.4)

let trace_replay () =
  let w = Workload.trace [ 1.0; 2.5; 7.0 ] in
  let rng = Test_util.rng () in
  Alcotest.(check (option (float 1e-12))) "first" (Some 1.0)
    (Workload.next_arrival w rng ~now:0.0);
  Alcotest.(check (option (float 1e-12))) "second" (Some 2.5)
    (Workload.next_arrival w rng ~now:1.0);
  Alcotest.(check (option (float 1e-12))) "third" (Some 7.0)
    (Workload.next_arrival w rng ~now:2.5);
  Alcotest.(check (option (float 1e-12))) "exhausted" None
    (Workload.next_arrival w rng ~now:7.0);
  Test_util.check_raises_invalid "non-increasing trace" (fun () ->
      ignore (Workload.trace [ 2.0; 1.0 ]))

(* [t <= prev] is false for NaN, so non-finite times need their own
   check; a gap list whose sum overflows reaches it through
   [of_intervals]. *)
let trace_rejects_non_finite () =
  List.iter
    (fun (label, times) ->
      Test_util.check_raises_invalid label (fun () ->
          ignore (Workload.trace times)))
    [
      ("nan", [ 1.0; Float.nan; 3.0 ]);
      ("leading nan", [ Float.nan ]);
      ("inf", [ 1.0; Float.infinity ]);
      ("-inf", [ Float.neg_infinity; 1.0 ]);
    ];
  List.iter
    (fun (label, gaps) ->
      Test_util.check_raises_invalid label (fun () ->
          ignore (Workload.of_intervals gaps)))
    [
      ("nan gap", [ 1.0; Float.nan ]);
      ("inf gap", [ Float.infinity ]);
      ("-inf gap", [ Float.neg_infinity ]);
      ("overflowing gaps", [ Float.max_float; Float.max_float ]);
    ]

let load_trace_rejects_non_finite () =
  let load ~intervals line =
    let path = Filename.temp_file "dpm_trace" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc ("1.0\n" ^ line ^ "\n"));
        Workload.load_trace ~intervals path)
  in
  List.iter
    (fun intervals ->
      List.iter
        (fun line ->
          match load ~intervals line with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "%s line %S was accepted"
                (if intervals then "intervals" else "trace")
                line)
        [ "nan"; "inf"; "-inf" ])
    [ false; true ];
  match load ~intervals:false "2.0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "a finite trace was refused: %s" e

let mean_rate_hints () =
  Test_util.check_close "poisson hint" 0.5
    (Workload.mean_rate_hint (Workload.poisson ~rate:0.5));
  Test_util.check_relative ~rel:1e-9 "trace hint" 1.0
    (Workload.mean_rate_hint (Workload.trace [ 1.0; 2.0; 3.0 ]))

let determinism () =
  let run seed =
    let w = Workload.poisson ~rate:1.0 in
    collect w (Rng.create seed) ~n:100
  in
  Alcotest.(check bool) "same seed same stream" true (run 5L = run 5L);
  Alcotest.(check bool) "different seed different stream" true (run 5L <> run 6L)

let suite =
  [
    t "poisson rate" `Slow poisson_rate_recovered;
    t "poisson increasing" `Quick poisson_strictly_increasing;
    t "piecewise segments" `Slow piecewise_rates_by_segment;
    t "piecewise validation" `Quick piecewise_validation;
    t "mmpp long-run rate" `Slow mmpp_mean_rate_between_phases;
    t "mmpp burstiness" `Slow mmpp_burstier_than_poisson;
    t "trace replay" `Quick trace_replay;
    t "trace and of_intervals reject non-finite times" `Quick
      trace_rejects_non_finite;
    t "load_trace refuses nan and infinity lines" `Quick
      load_trace_rejects_non_finite;
    t "mean rate hints" `Quick mean_rate_hints;
    t "determinism" `Quick determinism;
  ]
