(* Order statistics and the population rule. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

type tail = {
  value : float;
  rank : int;  (** 1-based rank of [value] in ascending order *)
  percentile : float;  (** [100 * rank / n] *)
  beyond : int;  (** samples strictly above the rank *)
}

(* The highest percentile with at least ten samples beyond it: rank
   [n - 10].  Below eleven samples no percentile qualifies, and the
   maximum is reported with the count it really has beyond it (0). *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let rank = if n > 10 then n - 10 else n in
  {
    value = s.(rank - 1);
    rank;
    percentile = 100.0 *. float_of_int rank /. float_of_int n;
    beyond = n - rank;
  }

(* 1-based rank of the median sample (the upper one for even n). *)
let median_rank n = (n / 2) + 1

(* {1 Population rule}

   Ops fall into populations listed in cost order (cheapest first) with
   their counts, as the benchmark prints them.  Reading the counts as
   consecutive rank intervals, a percentile rank lies inside one
   population when it is at least [margin] ranks from each boundary it
   shares with another population.  The end of the data is not such a
   boundary. *)

let margin n = max 2 ((n + 49) / 50)

type placement = {
  population : string;
  below : int;  (** ranks between the boundary under it and the rank *)
  above : int;  (** ranks between the rank and the boundary over it *)
  inside : bool;
}

let place ~counts ~rank =
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  if rank < 1 || rank > n then invalid_arg "Stats.place: rank out of range";
  let m = margin n in
  let rec go start = function
    | [] -> assert false
    | (name, c) :: rest ->
        let stop = start + c in
        if rank <= stop && c > 0 then
          let below = rank - start and above = stop - rank in
          let first = start = 0 and last = stop = n in
          {
            population = name;
            below;
            above;
            inside = (first || below >= m) && (last || above >= m);
          }
        else go stop rest
  in
  go 0 counts

(* Share of the ops within [margin] ranks of [rank], in latency order,
   that belong to [population] — the measured check of the count rule
   above, which assumes the cost order holds op by op. *)
let purity ~latencies ~labels ~rank ~population =
  let n = Array.length latencies in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare latencies.(i) latencies.(j)) order;
  let m = margin n in
  let lo = max 0 (rank - 1 - m) and hi = min (n - 1) (rank - 1 + m) in
  let hits = ref 0 in
  for k = lo to hi do
    if labels.(order.(k)) = population then incr hits
  done;
  float_of_int !hits /. float_of_int (hi - lo + 1)
