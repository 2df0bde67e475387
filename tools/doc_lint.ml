(* Documentation lint for .mli files and the markdown guides.

   odoc is not part of this repository's toolchain, so `dune build
   @doc` alone cannot prove the interfaces are documented.  This tool
   enforces the contract mechanically: every [.mli] passed on the
   command line must open with a module-level [(** ... *)] header, and
   every top-level [val] must carry a doc comment — either ending on
   the line above the declaration (and not being the trailing doc of
   the declaration before it) or opening after it, before the next
   top-level declaration.  tools/fixtures holds interfaces it must
   reject.

   Files ending in [.md] get a different check: every relative
   markdown link [text](target) must point at a file that exists next
   to the document (external http/https/mailto links and in-page
   #anchors are skipped, a #fragment suffix is stripped first).  This
   keeps the cross-references between README, ARCHITECTURE, MODELING,
   and EXPERIMENTS from rotting silently.

   Usage: doc_lint.exe FILE...   (exit 1 and a per-item report on any
   undocumented surface or broken link; no output when clean) *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_toplevel_decl line =
  List.exists
    (fun p -> starts_with p line)
    [ "val "; "type "; "module "; "exception "; "external "; "include " ]

let ends_with_comment_close line =
  let t = String.trim line in
  let n = String.length t in
  n >= 2 && String.sub t (n - 2) 2 = "*)"

let contains sub line =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
  in
  go 0

(* A val at [i] is documented when the nearest non-blank line above
   ends a comment that is not the trailing doc of the declaration
   before it (the line right above the comment's opening is blank,
   opens a comment, or does not exist), or a doc-comment opens
   between the declaration and the next top-level declaration. *)
let val_documented lines i =
  let above =
    let rec opening k =
      if k <= 0 || contains "(*" lines.(k) then k else opening (k - 1)
    in
    let rec go k =
      if k < 0 then false
      else if String.trim lines.(k) = "" then go (k - 1)
      else
        ends_with_comment_close lines.(k)
        &&
        let o = opening k in
        o = 0
        || String.trim lines.(o - 1) = ""
        || starts_with "(*" (String.trim lines.(o - 1))
    in
    go (i - 1)
  in
  above
  ||
  let n = Array.length lines in
  let rec go k =
    if k >= n then false
    else if k > i && is_toplevel_decl lines.(k) then false
    else if contains "(**" lines.(k) then true
    else go (k + 1)
  in
  go (i + 1)

let module_header lines =
  let n = Array.length lines in
  let rec go k =
    if k >= n then false
    else if String.trim lines.(k) = "" then go (k + 1)
    else starts_with "(**" (String.trim lines.(k))
  in
  go 0

(* Inline links on one line: every [text](target) pair.  Reference
   definitions and autolinks are not used in this repository's docs,
   so the inline form is the whole surface. *)
let md_link_targets line =
  let n = String.length line in
  let targets = ref [] in
  let rec scan i =
    if i >= n then ()
    else if line.[i] = ']' && i + 1 < n && line.[i + 1] = '(' then begin
      (match String.index_from_opt line (i + 2) ')' with
      | Some close ->
          targets := String.sub line (i + 2) (close - i - 2) :: !targets;
          scan (close + 1)
      | None -> ())
    end
    else scan (i + 1)
  in
  scan 0;
  List.rev !targets

let external_link t =
  starts_with "http://" t || starts_with "https://" t
  || starts_with "mailto:" t
  || starts_with "#" t

let lint_markdown path =
  let lines = read_lines path in
  let dir = Filename.dirname path in
  let problems = ref [] in
  Array.iteri
    (fun i line ->
      List.iter
        (fun target ->
          if not (external_link target) then begin
            let file =
              match String.index_opt target '#' with
              | Some k -> String.sub target 0 k
              | None -> target
            in
            if file <> "" && not (Sys.file_exists (Filename.concat dir file))
            then
              problems :=
                Printf.sprintf "%s:%d: broken link: %s" path (i + 1) target
                :: !problems
          end)
        (md_link_targets line))
    lines;
  List.rev !problems

let lint_mli path =
  let lines = read_lines path in
  let problems = ref [] in
  if not (module_header lines) then
    problems := Printf.sprintf "%s:1: missing module-level (** ... *) header" path :: !problems;
  Array.iteri
    (fun i line ->
      if starts_with "val " line && not (val_documented lines i) then
        problems :=
          Printf.sprintf "%s:%d: undocumented: %s" path (i + 1)
            (String.trim line)
          :: !problems)
    lines;
  List.rev !problems

let lint path =
  if Filename.check_suffix path ".md" then lint_markdown path
  else lint_mli path

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: doc_lint FILE...";
    exit 2
  end;
  let problems = List.concat_map lint files in
  if problems <> [] then begin
    List.iter prerr_endline problems;
    Printf.eprintf "doc_lint: %d problem(s) in %d file(s)\n"
      (List.length problems) (List.length files);
    exit 1
  end
