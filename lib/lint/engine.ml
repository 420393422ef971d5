(* Rules → suppressions for one file; directory walking for the tree.
   Every rule runs on the Typedtree: [Cmt_index] loads each file's
   [.cmt] from the build, and a file without one is not linted at all,
   so it is reported in [missing] and the driver treats that as an
   error.

   The cmts load first, on one domain: [guarded_by] annotations cross
   files, so every declaration must be known before any rule runs. Rule
   iteration — the expensive part — then parallelises over
   [Qls_harness.Pool] domains: per-file results land in a slot indexed
   by the sorted walk order and are merged in that order, so the report
   is bit-identical for every [jobs]. *)

type report = {
  findings : Finding.t list;  (** unsuppressed, sorted *)
  suppressed : int;           (** findings silenced by in-source comments *)
  files : int;
  missing : string list;      (** files with no [.cmt], hence unlinted *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [rules] over one file's Typedtree and apply its suppression
   comments. [file] is what path-scoped rules and findings see. *)
let lint_structure ~rules ~guards ~file ~src structure =
  let ctx = Typed_rules.context ~file ~guards structure in
  let raw = ref [] in
  List.iter
    (fun { Registry.name = rule; severity; check; _ } ->
      let report loc msg =
        raw := Finding.of_location ~file ~rule ~severity loc msg :: !raw
      in
      check { ctx with report } structure)
    rules;
  let sup = Suppress.scan src in
  let kept, silenced =
    List.partition
      (fun (f : Finding.t) ->
        not (Suppress.suppressed sup ~line:f.Finding.line ~rule:f.Finding.rule))
      !raw
  in
  (List.sort Finding.order kept, List.length silenced)

(* Deterministic walk: directory entries sorted with [String.compare],
   [_build] and dotfiles skipped. *)
let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.sort String.compare
  |> List.concat_map (fun name ->
         if String.equal name "_build" || (String.length name > 0 && name.[0] = '.')
         then []
         else
           let p = Filename.concat dir name in
           if Sys.is_directory p then ml_files p
           else if Filename.check_suffix name ".ml" then [ p ]
           else [])

let default_dirs = [ "lib"; "bin"; "bench" ]

(* "./lib/foo.ml" and "lib/foo.ml" must be the same file as far as the
   baseline is concerned. *)
let normalize p =
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

let collect_paths ~root paths =
  let paths =
    match paths with
    | [] -> List.filter Sys.file_exists (List.map (Filename.concat root) default_dirs)
    | ps -> ps
  in
  List.concat_map
    (fun p -> if Sys.is_directory p then ml_files p else [ p ])
    paths
  |> List.map normalize

let relativize ~root path =
  let root = normalize root in
  if root = "." || root = "" then path
  else
    let prefix = if String.length root > 0 && root.[String.length root - 1] = '/' then root else root ^ "/" in
    let lp = String.length prefix and lpath = String.length path in
    if lpath > lp && String.sub path 0 lp = prefix then
      String.sub path lp (lpath - lp)
    else path

let default_build_root root =
  let b = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists b && Sys.is_directory b then b else root

let run ?(jobs = 1) ?build_root ~rules ~root paths =
  let index =
    Cmt_index.create
      ~build_root:(Option.value build_root ~default:(default_build_root root))
  in
  let units =
    Array.of_list (collect_paths ~root paths)
    |> Array.map (fun file ->
           (file, read_file file, Cmt_index.find index ~source:(relativize ~root file)))
  in
  let guards = Typed_rules.Guards.empty () in
  Array.iter
    (function
      | file, src, Cmt_index.Loaded structure ->
          Typed_rules.Guards.add_file guards ~file ~src structure
      | _, _, Cmt_index.Unavailable -> ())
    units;
  let lint_one _ (file, src, load) =
    match load with
    | Cmt_index.Loaded structure ->
        Ok (lint_structure ~rules ~guards ~file ~src structure)
    | Cmt_index.Unavailable -> Error file
  in
  let results =
    if jobs <= 1 || Array.length units <= 1 then Array.mapi lint_one units
    else Qls_harness.Pool.run ~jobs ~f:lint_one units
  in
  let findings, suppressed, missing =
    Array.fold_left
      (fun (fs, sup, miss) -> function
        | Ok (kept, silenced) -> (kept :: fs, sup + silenced, miss)
        | Error file -> (fs, sup, file :: miss))
      ([], 0, []) results
  in
  {
    findings = List.sort Finding.order (List.concat findings);
    suppressed;
    files = Array.length units;
    missing = List.rev missing;
  }
