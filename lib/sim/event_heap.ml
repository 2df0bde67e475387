type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* array-backed binary heap *)
  mutable length : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; length = 0; next_seq = 0 }

let is_empty h = h.length = 0
let size h = h.length

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap h i j =
  let t = h.heap.(i) in
  h.heap.(i) <- h.heap.(j);
  h.heap.(j) <- t

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier h.heap.(i) h.heap.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.length && earlier h.heap.(l) h.heap.(!smallest) then smallest := l;
  if r < h.length && earlier h.heap.(r) h.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  let entry = { time; seq = h.next_seq; payload } in
  h.next_seq <- h.next_seq + 1;
  if h.length >= Array.length h.heap then begin
    let cap = max 16 (2 * Array.length h.heap) in
    let bigger = Array.make cap entry in
    Array.blit h.heap 0 bigger 0 h.length;
    h.heap <- bigger
  end;
  h.heap.(h.length) <- entry;
  h.length <- h.length + 1;
  sift_up h (h.length - 1)

let pop h =
  if h.length = 0 then None
  else begin
    let top = h.heap.(0) in
    h.length <- h.length - 1;
    if h.length > 0 then begin
      h.heap.(0) <- h.heap.(h.length);
      sift_down h 0
    end;
    Some (top.time, top.payload)
  end

let peek h =
  if h.length = 0 then None
  else
    let top = h.heap.(0) in
    Some (top.time, top.payload)
