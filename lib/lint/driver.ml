(* The lint driver behind [analysis/qls_lint_main.exe]: resolve the rule
   subset, run the engine, apply the baseline, write the optional
   JSONL/SARIF sinks, and turn the outcome into the conventional exit
   code (0 clean, 1 findings, 2 usage/configuration error — including a
   file the engine could not lint because the build left no [.cmt]). *)

type opts = {
  root : string;
  paths : string list;
  baseline : string option;
  write_baseline : string option;
  jsonl : string option;
  sarif : string option;
  rules : string list;  (** [] = the full catalogue *)
  jobs : int;
  check_stale : bool;
      (** fail (exit 1) when the baseline carries stale entries *)
  quiet : bool;
}

let default_opts =
  {
    root = ".";
    paths = [];
    baseline = None;
    write_baseline = None;
    jsonl = None;
    sarif = None;
    rules = [];
    jobs = 1;
    check_stale = false;
    quiet = true;
  }

let resolve_rules = function
  | [] -> Ok Registry.all
  | names -> (
      match List.filter (fun n -> Option.is_none (Registry.by_name n)) names with
      | [] -> Ok (List.filter_map Registry.by_name names)
      | unknown ->
          Error
            (Printf.sprintf "unknown rule(s): %s" (String.concat ", " unknown)))

let execute opts =
  match resolve_rules opts.rules with
  | Error msg ->
      Printf.eprintf "qls_lint: %s\n" msg;
      2
  | Ok rules -> (
      let report =
        Engine.run ~jobs:opts.jobs ~rules ~root:opts.root opts.paths
      in
      if not (List.is_empty report.Engine.missing) then begin
        List.iter
          (fun f ->
            Printf.eprintf
              "qls_lint: no .cmt found for %s, so it was not linted; run \
               `dune build @check` first\n"
              f)
          report.Engine.missing;
        2
      end
      else
        match opts.write_baseline with
        | Some path ->
            let entries = Baseline.of_findings report.Engine.findings in
            let pruned =
              match Baseline.load path with
              | Ok old ->
                  List.length
                    (Baseline.apply old report.Engine.findings).Baseline.stale
              | Error _ -> 0
            in
            let oc = open_out path in
            output_string oc (Baseline.render entries);
            close_out oc;
            Printf.printf
              "qls_lint: wrote %d baseline entr%s to %s (%d stale pruned)\n"
              (List.length entries)
              (match entries with [ _ ] -> "y" | _ -> "ies")
              path pruned;
            0
        | None -> (
            let applied =
              match opts.baseline with
              | None ->
                  {
                    Baseline.kept = report.Engine.findings;
                    waived = 0;
                    stale = [];
                  }
              | Some path -> (
                  match Baseline.load path with
                  | Ok entries ->
                      Baseline.apply entries report.Engine.findings
                  | Error msg ->
                      Printf.eprintf "qls_lint: baseline %s: %s\n" path msg;
                      exit 2)
            in
            List.iter
              (fun f -> print_endline (Finding.to_human f))
              applied.Baseline.kept;
            List.iter
              (fun e ->
                Printf.printf
                  "%s: stale baseline entry %s\t%s\t%d (fewer findings remain \
                   — regenerate with --write-baseline)\n"
                  (if opts.check_stale then "error" else "note")
                  e.Baseline.file e.Baseline.rule e.Baseline.allowed)
              applied.Baseline.stale;
            (match opts.jsonl with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                List.iter
                  (fun f ->
                    output_string oc (Finding.to_jsonl f);
                    output_char oc '\n')
                  applied.Baseline.kept;
                close_out oc);
            (match opts.sarif with
            | None -> ()
            | Some path ->
                Sarif.write ~path ~rules:Registry.all
                  ~findings:applied.Baseline.kept);
            if not opts.quiet then
              Printf.printf
                "qls_lint: %d file(s), %d finding(s) (%d suppressed in \
                 source, %d waived by baseline)\n"
                report.Engine.files
                (List.length applied.Baseline.kept)
                report.Engine.suppressed applied.Baseline.waived;
            match
              ( applied.Baseline.kept,
                opts.check_stale
                && not (List.is_empty applied.Baseline.stale) )
            with
            | [], false -> 0
            | _ -> 1))

let usage prog =
  Printf.sprintf
    "%s [options] [path ...]\n\
     Lints lib/, bin/ and bench/ under --root when no paths are given;\n\
     every file needs the .cmt that `dune build @check` emits.\n\
     Exit status: 0 clean, 1 findings, 2 usage/configuration error.\n\
     Options:"
    prog

(* The command-line front end of analysis/qls_lint_main.exe. *)
let main ~prog argv =
  let root = ref "." in
  let baseline_path = ref "" in
  let jsonl_path = ref "" in
  let sarif_path = ref "" in
  let write_baseline = ref "" in
  let rule_names = ref "" in
  let jobs = ref 1 in
  let check_stale = ref false in
  let quiet = ref false in
  let paths = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR  tree root (default .)");
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE  grandfather file; findings covered by it are waived" );
      ( "--jsonl",
        Arg.Set_string jsonl_path,
        "FILE  also write the surviving findings as JSONL" );
      ( "--sarif",
        Arg.Set_string sarif_path,
        "FILE  also write the surviving findings as SARIF 2.1.0" );
      ( "--write-baseline",
        Arg.Set_string write_baseline,
        "FILE  write the current findings as a fresh baseline (pruning stale \
         entries) and exit 0" );
      ( "--rules",
        Arg.Set_string rule_names,
        "NAMES  comma-separated rule subset (default: all)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N  lint N files in parallel on pool domains (default 1)" );
      ( "--check",
        Arg.Set check_stale,
        " fail when the baseline carries stale entries" );
      ("--quiet", Arg.Set quiet, " suppress the summary line");
    ]
  in
  match
    Arg.parse_argv ~current:(ref 0) argv spec
      (fun p -> paths := p :: !paths)
      (usage prog)
  with
  | exception Arg.Bad msg ->
      prerr_string msg;
      2
  | exception Arg.Help msg ->
      print_string msg;
      0
  | () ->
      let opt_of_string s = if String.equal s "" then None else Some s in
      execute
        {
          root = !root;
          paths = List.rev !paths;
          baseline = opt_of_string !baseline_path;
          write_baseline = opt_of_string !write_baseline;
          jsonl = opt_of_string !jsonl_path;
          sarif = opt_of_string !sarif_path;
          rules =
            (if String.equal !rule_names "" then []
             else
               String.split_on_char ',' !rule_names |> List.map String.trim
               |> List.filter (fun s -> s <> ""));
          jobs = !jobs;
          check_stale = !check_stale;
          quiet = !quiet;
        }
