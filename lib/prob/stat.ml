module Welford = struct
  (* All-float, so the fields are stored flat: [add] writes no fresh
     box into a long-lived record.  The count is a float, exact below
     2^53. *)
  type t = { mutable n : float; mutable mean : float; mutable m2 : float }

  let create () = { n = 0.0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n +. 1.0;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = int_of_float t.n
  let mean t = if t.n = 0.0 then Float.nan else t.mean

  let variance t = if t.n < 2.0 then Float.nan else t.m2 /. (t.n -. 1.0)

  let std_dev t = sqrt (variance t)

  let std_error t = if t.n < 2.0 then Float.nan else std_dev t /. sqrt t.n

  let confidence95 t =
    let half = 1.959964 *. std_error t in
    (mean t -. half, mean t +. half)

  let merge a b =
    if a.n = 0.0 then { n = b.n; mean = b.mean; m2 = b.m2 }
    else if b.n = 0.0 then { n = a.n; mean = a.mean; m2 = a.m2 }
    else begin
      let n = a.n +. b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. b.n /. n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
      { n; mean; m2 }
    end
end

module Time_weighted = struct
  type t = {
    start : float;
    mutable last_time : float;
    mutable value : float;
    mutable area : float;
  }

  let create ?(at = 0.0) v = { start = at; last_time = at; value = v; area = 0.0 }

  let update t ~at v =
    if at < t.last_time then
      invalid_arg
        (Printf.sprintf "Time_weighted.update: clock moved backwards (%g < %g)"
           at t.last_time);
    t.area <- t.area +. (t.value *. (at -. t.last_time));
    t.last_time <- at;
    t.value <- v

  let add_impulse t x = t.area <- t.area +. x

  let integral t ~upto =
    if upto < t.last_time then
      invalid_arg "Time_weighted.integral: upto precedes last update";
    t.area +. (t.value *. (upto -. t.last_time))

  let average t ~upto =
    let elapsed = upto -. t.start in
    if elapsed <= 0.0 then Float.nan else integral t ~upto /. elapsed

  let current t = t.value
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    bins : int array;
    mutable under : int;
    mutable over : int;
    mutable total : int;
  }

  let create ~lo ~hi ~bins =
    if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
    if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
    { lo; hi; bins = Array.make bins 0; under = 0; over = 0; total = 0 }

  let add t x =
    t.total <- t.total + 1;
    if x < t.lo then t.under <- t.under + 1
    else if x >= t.hi then t.over <- t.over + 1
    else begin
      let width = (t.hi -. t.lo) /. float_of_int (Array.length t.bins) in
      let i = int_of_float ((x -. t.lo) /. width) in
      let i = min i (Array.length t.bins - 1) in
      t.bins.(i) <- t.bins.(i) + 1
    end

  let count t = t.total

  let bin_count t i =
    if i < 0 || i >= Array.length t.bins then
      invalid_arg "Histogram.bin_count: bad bin";
    t.bins.(i)

  let underflow t = t.under
  let overflow t = t.over

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q out of [0,1]";
    if t.total = 0 then Float.nan
    else begin
      let target = q *. float_of_int t.total in
      let width = (t.hi -. t.lo) /. float_of_int (Array.length t.bins) in
      let rec scan i acc =
        if i >= Array.length t.bins then t.hi
        else
          let acc' = acc +. float_of_int t.bins.(i) in
          if acc' >= target then t.lo +. ((float_of_int i +. 0.5) *. width)
          else scan (i + 1) acc'
      in
      scan 0 (float_of_int t.under)
    end

  let pp ppf t =
    let width = (t.hi -. t.lo) /. float_of_int (Array.length t.bins) in
    Format.fprintf ppf "@[<v>";
    if t.under > 0 then Format.fprintf ppf "  < %g: %d@," t.lo t.under;
    Array.iteri
      (fun i c ->
        if c > 0 then
          Format.fprintf ppf "[%g, %g): %d@,"
            (t.lo +. (float_of_int i *. width))
            (t.lo +. (float_of_int (i + 1) *. width))
            c)
      t.bins;
    if t.over > 0 then Format.fprintf ppf " >= %g: %d@," t.hi t.over;
    Format.fprintf ppf "@]"
end

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let relative_error ~actual ~approx = (approx -. actual) /. actual *. 100.0
