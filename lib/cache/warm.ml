let init_of_actions m actions =
  match Dpm_ctmdp.Policy.of_actions m actions with
  | p ->
      Dpm_obs.Probe.incr "cache.warm_starts";
      Some p
  | exception Invalid_argument _ ->
      Dpm_obs.Probe.incr "cache.warm_fallbacks";
      None

let waves n =
  if n <= 0 then []
  else if n = 1 then [ [| (0, None) |] ]
  else begin
    let solved = Array.make n false in
    solved.(0) <- true;
    solved.(n - 1) <- true;
    let head = [ [| (n - 1, Some 0) |]; [| (0, None) |] ] in
    (* Split every gap between consecutive solved points at its
       midpoint; the midpoint's seed is the nearer endpoint (left on
       ties, since floor division puts the midpoint left of center). *)
    let rec subdivide acc =
      let wave = ref [] in
      let last_solved = ref 0 in
      for i = 1 to n - 1 do
        if solved.(i) then begin
          let l = !last_solved and r = i in
          if r - l >= 2 then begin
            let mid = (l + r) / 2 in
            let src = if mid - l <= r - mid then l else r in
            wave := (mid, Some src) :: !wave
          end;
          last_solved := i
        end
      done;
      match !wave with
      | [] -> List.rev acc
      | points ->
          let points = Array.of_list (List.rev points) in
          Array.iter (fun (k, _) -> solved.(k) <- true) points;
          subdivide (points :: acc)
    in
    subdivide head
  end
