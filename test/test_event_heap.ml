open Dpm_sim

let t = Alcotest.test_case

let pop_in_time_order () =
  let h = Event_heap.create () in
  List.iter
    (fun (time, v) -> Event_heap.push h ~time v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (5.0, "e"); (4.0, "d") ];
  let order = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order)

let ties_fire_in_insertion_order () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:1.0 i
  done;
  for i = 0 to 9 do
    match Event_heap.pop h with
    | Some (_, v) -> Alcotest.(check int) "FIFO at equal times" i v
    | None -> Alcotest.fail "heap exhausted early"
  done

let size_tracks_live_events () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h);
  Event_heap.push h ~time:1.0 ();
  Event_heap.push h ~time:2.0 ();
  Alcotest.(check int) "two live" 2 (Event_heap.size h)

let peek_does_not_consume () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty" true (Event_heap.peek h = None);
  Event_heap.push h ~time:3.0 "late";
  Event_heap.push h ~time:1.0 "early";
  Alcotest.(check bool) "earliest" true (Event_heap.peek h = Some (1.0, "early"));
  Alcotest.(check int) "peek did not consume" 2 (Event_heap.size h)

let nan_rejected () =
  let h = Event_heap.create () in
  Test_util.check_raises_invalid "NaN time" (fun () ->
      Event_heap.push h ~time:Float.nan ())

let prop_heap_sorts_random_streams =
  Test_util.qtest "random pushes pop sorted"
    QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 1000.0))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun time -> Event_heap.push h ~time time) times;
      let rec drain acc =
        match Event_heap.pop h with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare times)

let suite =
  [
    t "pop order" `Quick pop_in_time_order;
    t "tie-break by insertion" `Quick ties_fire_in_insertion_order;
    t "size tracking" `Quick size_tracks_live_events;
    t "peek" `Quick peek_does_not_consume;
    t "NaN rejected" `Quick nan_rejected;
    prop_heap_sorts_random_streams;
  ]
