open Dpm_linalg

let adjacency g =
  let n = Generator.dim g in
  let succ = Array.make n [] in
  Generator.iter_off_diagonal g (fun i j _ -> succ.(i) <- j :: succ.(i));
  Array.map (fun l -> Array.of_list (List.rev l)) succ

(* Iterative Tarjan SCC: explicit stack to survive deep graphs (the
   queue-capacity ablation builds chains thousands of states long). *)
let tarjan_scc n succ =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let sccs = ref [] in
  let visit root =
    (* Each frame: (state, next successor offset). *)
    let call_stack = ref [ (root, ref 0) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !call_stack <> [] do
      match !call_stack with
      | [] -> ()
      | (v, k) :: rest ->
          if !k < Array.length succ.(v) then begin
            let w = succ.(v).(!k) in
            incr k;
            if index.(w) = -1 then begin
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              on_stack.(w) <- true;
              call_stack := (w, ref 0) :: !call_stack
            end
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            call_stack := rest;
            (match rest with
            | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              (* Pop the component rooted at v. *)
              let comp = ref [] in
              let continue_pop = ref true in
              while !continue_pop do
                match !stack with
                | [] -> continue_pop := false
                | w :: tl ->
                    stack := tl;
                    on_stack.(w) <- false;
                    comp := w :: !comp;
                    if w = v then continue_pop := false
              done;
              sccs := !comp :: !sccs
            end
          end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  !sccs

let communicating_classes g = tarjan_scc (Generator.dim g) (adjacency g)

let is_irreducible g =
  match communicating_classes g with [ _ ] -> true | _ -> false

let reachable_from g i =
  let n = Generator.dim g in
  if i < 0 || i >= n then invalid_arg "Structure.reachable_from: bad state";
  let succ = adjacency g in
  let seen = Array.make n false in
  let rec walk frontier =
    match frontier with
    | [] -> ()
    | v :: rest ->
        let next =
          Array.fold_left
            (fun acc w ->
              if seen.(w) then acc
              else begin
                seen.(w) <- true;
                w :: acc
              end)
            rest succ.(v)
        in
        walk next
  in
  seen.(i) <- true;
  walk [ i ];
  seen

let closed_classes succ =
  let n = Array.length succ in
  let classes = tarjan_scc n succ in
  let class_of = Array.make n (-1) in
  List.iteri (fun c members -> List.iter (fun v -> class_of.(v) <- c) members) classes;
  List.filteri
    (fun c members ->
      List.for_all
        (fun v -> Array.for_all (fun w -> class_of.(w) = c) succ.(v))
        members)
    classes

let recurrent_classes g = closed_classes (adjacency g)

let transient_states g =
  let closed = recurrent_classes g in
  let n = Generator.dim g in
  let recurrent = Array.make n false in
  List.iter (List.iter (fun v -> recurrent.(v) <- true)) closed;
  List.filter (fun v -> not recurrent.(v)) (List.init n (fun v -> v))

let is_connected_graph adj =
  let n = Sparse.rows adj in
  if n = 0 then true
  else begin
    (* Undirected reachability over the union of the sparsity patterns
       of the matrix and its transpose. *)
    let neighbours = Array.make n [] in
    Sparse.iter adj (fun i j x ->
        if i <> j && x <> 0.0 then begin
          neighbours.(i) <- j :: neighbours.(i);
          neighbours.(j) <- i :: neighbours.(j)
        end);
    let seen = Array.make n false in
    let rec walk = function
      | [] -> ()
      | v :: rest ->
          let next =
            List.fold_left
              (fun acc w ->
                if seen.(w) then acc
                else begin
                  seen.(w) <- true;
                  w :: acc
                end)
              rest neighbours.(v)
          in
          walk next
    in
    seen.(0) <- true;
    walk [ 0 ];
    Array.for_all (fun b -> b) seen
  end
