open Dpm_trace

let t = Alcotest.test_case

(* --- Chrome export --------------------------------------------------- *)

(* The export format is a contract with Perfetto / chrome://tracing:
   pin it byte for byte from a fixed event list. *)
let golden_chrome () =
  let events =
    [
      {
        Event.ts = 100.0;
        name = "solve";
        phase = Event.Begin;
        tid = 0;
        args = [];
      };
      {
        Event.ts = 100.0005;
        name = "cache.miss";
        phase = Event.Instant;
        tid = 0;
        args = [ ("fingerprint", Event.Str "00000000deadbeef") ];
      };
      {
        Event.ts = 100.002;
        name = "solve";
        phase = Event.End;
        tid = 1;
        args =
          [
            ("iterations", Event.Int 4);
            ("converged", Event.Bool true);
            ("residual", Event.Float 0.5);
          ];
      };
    ]
  in
  let rendered = Chrome.render ~epoch:100.0 events in
  let expected =
    "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\
    \  {\"name\": \"solve\", \"cat\": \"dpm\", \"ph\": \"B\", \"ts\": 0.000, \
     \"pid\": 1, \"tid\": 0},\n\
    \  {\"name\": \"cache.miss\", \"cat\": \"dpm\", \"ph\": \"i\", \"ts\": \
     500.000, \"pid\": 1, \"tid\": 0, \"s\": \"t\", \"args\": \
     {\"fingerprint\": \"00000000deadbeef\"}},\n\
    \  {\"name\": \"solve\", \"cat\": \"dpm\", \"ph\": \"E\", \"ts\": \
     2000.000, \"pid\": 1, \"tid\": 1, \"args\": {\"iterations\": 4, \
     \"converged\": true, \"residual\": 0.5}}\n\
     ]}\n"
  in
  Alcotest.(check string) "golden Chrome JSON" expected rendered;
  match Json.parse rendered with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("export is not valid JSON: " ^ e)

(* --- recorder -------------------------------------------------------- *)

let spans_emit_nested_events () =
  let r = Recorder.create () in
  Recorder.with_recorder r (fun () ->
      Dpm_obs.Span.with_ "outer" (fun () ->
          Dpm_obs.Span.with_ "inner" (fun () -> ())));
  let shape =
    List.map
      (fun e -> (e.Event.name, Event.phase_code e.Event.phase))
      (Recorder.events r)
  in
  Alcotest.(check (list (pair string string)))
    "B/E events nest like the call tree"
    [ ("outer", "B"); ("inner", "B"); ("inner", "E"); ("outer", "E") ]
    shape

let ring_drops_oldest () =
  let r = Recorder.create ~capacity:16 () in
  Recorder.with_recorder r (fun () ->
      for i = 1 to 40 do
        Recorder.instant "tick" ~args:[ ("i", Event.Int i) ]
      done);
  Alcotest.(check int) "keeps capacity" 16 (Recorder.length r);
  Alcotest.(check int) "counts drops" 24 (Recorder.dropped r);
  match Recorder.events r with
  | first :: _ ->
      Alcotest.(check bool) "retains the newest window" true
        (List.assoc "i" first.Event.args = Event.Int 25)
  | [] -> Alcotest.fail "empty recorder"

(* Each domain writes its own ring; the merged stream must contain
   every event and come out time-sorted at any pool size. *)
let merged_stream_is_sorted ~domains () =
  let r = Recorder.create () in
  Recorder.with_recorder r (fun () ->
      ignore
        (Dpm_par.parallel_map ~domains
           (fun k ->
             for i = 0 to 24 do
               Recorder.instant "work"
                 ~args:[ ("task", Event.Int k); ("step", Event.Int i) ]
             done;
             k)
           (Array.init 8 Fun.id)));
  let events = Recorder.events r in
  Alcotest.(check int) "every event retained" 200 (List.length events);
  Alcotest.(check int) "none dropped" 0 (Recorder.dropped r);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
        a.Event.ts <= b.Event.ts && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "merged stream is time-sorted" true
    (nondecreasing events)

(* The disabled hot path is one atomic load: hammering it without an
   active recorder must not allocate (same budget as the Dpm_obs
   disabled-probe test). *)
let disabled_recorder_is_free () =
  Alcotest.(check bool) "no recorder active" true (Recorder.current () = None);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Recorder.begin_ "hot";
    Recorder.instant "hot";
    Recorder.end_ "hot"
  done;
  let allocated = Gc.minor_words () -. before in
  if allocated >= 1_000.0 then
    Alcotest.failf "disabled recorder allocated %.0f minor words" allocated

(* --- provenance ------------------------------------------------------ *)

let provenance_round_trip () =
  let sys = Dpm_core.Paper_instance.system () in
  let sol = Dpm_core.Optimize.solve ~weight:1.0 sys in
  let p = sol.Dpm_core.Optimize.provenance in
  Alcotest.(check bool) "fingerprint filled in" true
    (p.Provenance.fingerprint <> 0L);
  Alcotest.(check string) "method" "policy_iteration" p.Provenance.method_;
  Alcotest.(check bool) "iterated" true (p.Provenance.iterations > 0);
  match Provenance.of_json (Provenance.to_json p) with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      Alcotest.(check string) "fingerprint survives"
        (Provenance.fingerprint_hex p)
        (Provenance.fingerprint_hex q);
      Alcotest.(check int) "iterations survive" p.Provenance.iterations
        q.Provenance.iterations;
      Alcotest.(check string) "origin survives"
        (Provenance.origin_to_string p.Provenance.origin)
        (Provenance.origin_to_string q.Provenance.origin);
      Alcotest.(check string) "re-serialization is stable"
        (Provenance.to_json p) (Provenance.to_json q)

let provenance_collect_tallies () =
  let (), counts =
    Provenance.collect (fun () ->
        Provenance.note_robust_retry ();
        Provenance.note_tikhonov_rung ();
        Provenance.note_tikhonov_rung ();
        Provenance.note_residual 1e-9;
        Provenance.note_eval_path "sparse")
  in
  Alcotest.(check int) "retries" 1 counts.Provenance.robust_retries;
  Alcotest.(check int) "rungs" 2 counts.Provenance.tikhonov_rungs;
  let p =
    Provenance.of_counts ~method_:"policy_iteration" ~iterations:3
      ~origin:Provenance.Warm ~wall_s:0.25 counts
  in
  Alcotest.(check string) "noted eval path wins" "sparse"
    p.Provenance.eval_path;
  Alcotest.(check (float 0.0)) "noted residual wins" 1e-9
    p.Provenance.residual;
  (* Notes outside any collector must be silent no-ops. *)
  Provenance.note_fault ();
  Provenance.note_pivot ()

(* --- JSON ------------------------------------------------------------ *)

let json_parse_round_trip () =
  let doc =
    "{\"a\": [1, 2.5, null, true, false, \"x\\ny\\u00e9\"], \"b\": {\"c\": \
     -3e-2, \"d\": 1e300}}"
  in
  match Json.parse doc with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      let s = Json.to_string j in
      match Json.parse s with
      | Error e -> Alcotest.fail ("re-parse: " ^ e)
      | Ok j2 -> Alcotest.(check string) "print/parse fixpoint" s
                   (Json.to_string j2))

let json_rejects_garbage () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\": }"; "nul"; "\"unterminated"; "{} extra" ]

let suite =
  [
    t "golden Chrome JSON" `Quick golden_chrome;
    t "spans emit nested events" `Quick spans_emit_nested_events;
    t "ring drops oldest" `Quick ring_drops_oldest;
    t "merged stream sorted (1 domain)" `Quick
      (merged_stream_is_sorted ~domains:1);
    t "merged stream sorted (2 domains)" `Quick
      (merged_stream_is_sorted ~domains:2);
    t "merged stream sorted (4 domains)" `Quick
      (merged_stream_is_sorted ~domains:4);
    t "disabled recorder is free" `Quick disabled_recorder_is_free;
    t "provenance round-trip" `Quick provenance_round_trip;
    t "provenance collector tallies" `Quick provenance_collect_tallies;
    t "json parse round-trip" `Quick json_parse_round_trip;
    t "json rejects garbage" `Quick json_rejects_garbage;
  ]
