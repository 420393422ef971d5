(* Tests for the Qls_lint static-analysis pass: per-rule compiled
   fixtures with asserted violation counts, path scoping, the
   suppression comment forms, baseline round-tripping, and the
   self-check that lib/ itself is lint-clean. *)

module Finding = Qls_lint.Finding
module Engine = Qls_lint.Engine
module Cmt_index = Qls_lint.Cmt_index
module Typed_rules = Qls_lint.Typed_rules
module Suppress = Qls_lint.Suppress
module Baseline = Qls_lint.Baseline
module Registry = Qls_lint.Registry
module Driver = Qls_lint.Driver
module Sarif = Qls_lint.Sarif

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_case name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec find_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
    && Sys.is_directory (Filename.concat dir "lib")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

let repo_root () =
  match find_root (Sys.getcwd ()) with
  | Some root -> root
  | None -> Alcotest.fail "repo root not found above the test cwd"

let fixture_dir () = Filename.concat (repo_root ()) "test/lint/typed_fixtures"

let rule name =
  match Registry.by_name name with
  | Some r -> r
  | None -> Alcotest.failf "rule %s not registered" name

(* Lint one compiled fixture (a path under typed_fixtures/) through the
   engine, failing on a missing cmt so a fixture the build skipped
   cannot pass as "0 findings". [as_] lints the same Typedtree as if it
   lived at another path, for the path-scoped rules. *)
let lint_fixture ?as_ ~rules name =
  let root = repo_root () in
  let path = Filename.concat (fixture_dir ()) name in
  match as_ with
  | None ->
      let report = Engine.run ~rules ~root [ path ] in
      check_int "fixture has a cmt" 0 (List.length report.Engine.missing);
      (report.Engine.findings, report.Engine.suppressed)
  | Some file -> (
      let index = Cmt_index.create ~build_root:root in
      match Cmt_index.find index ~source:(Engine.relativize ~root path) with
      | Cmt_index.Unavailable -> Alcotest.failf "no cmt for fixture %s" name
      | Cmt_index.Loaded structure ->
          Engine.lint_structure ~rules
            ~guards:(Typed_rules.Guards.empty ())
            ~file ~src:(read_file path) structure)

let expect_fixture ?as_ ?suppressed name ~rule:rule_name ~count =
  let findings, silenced = lint_fixture ?as_ ~rules:[ rule rule_name ] name in
  List.iter (fun f -> check_string "rule tag" rule_name f.Finding.rule) findings;
  check_int "finding count" count (List.length findings);
  Option.iter (check_int "suppressed count" silenced) suppressed

let expect_rule name file count =
  test_case
    (Printf.sprintf "%s fires %d time(s) on %s" name count file)
    (fun () -> expect_fixture file ~rule:name ~count)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let rule_tests =
  [
    expect_rule "domain-escape" "r1_domain_capture.ml" 6;
    expect_rule "poly-compare" "r2_poly_compare.ml" 5;
    expect_rule "float-discipline" "r3_float_discipline.ml" 7;
    expect_rule "nondet-source" "r4_nondet_source.ml" 6;
    expect_rule "obs-discipline" "r5_obs_discipline.ml" 4;
    test_case "unbounded-wait fires under a serving-path file name" (fun () ->
        expect_fixture "lib/serve/r6_unbounded_wait.ml" ~rule:"unbounded-wait"
          ~count:4 ~suppressed:1);
    test_case "unbounded-wait also covers lib/harness" (fun () ->
        expect_fixture "lib/serve/r6_unbounded_wait.ml" ~rule:"unbounded-wait"
          ~as_:"lib/harness/r6_unbounded_wait.ml" ~count:4);
    test_case "unbounded-wait is silent outside the serving path" (fun () ->
        expect_fixture "lib/serve/r6_unbounded_wait.ml" ~rule:"unbounded-wait"
          ~as_:"lib/faults/r6_unbounded_wait.ml" ~count:0);
    test_case "seeded-randomness fires under a solver-stack file name"
      (fun () ->
        expect_fixture "lib/sat/r7_seeded_randomness.ml"
          ~rule:"seeded-randomness" ~count:3 ~suppressed:1);
    test_case "seeded-randomness also covers lib/router" (fun () ->
        expect_fixture "lib/sat/r7_seeded_randomness.ml"
          ~rule:"seeded-randomness" ~as_:"lib/router/r7_seeded_randomness.ml"
          ~count:3);
    test_case "seeded-randomness is silent outside the solver stack"
      (fun () ->
        expect_fixture "lib/sat/r7_seeded_randomness.ml"
          ~rule:"seeded-randomness" ~as_:"bench/r7_seeded_randomness.ml"
          ~count:0);
    test_case "distance-in-loop fires under a router file name" (fun () ->
        expect_fixture "lib/router/r8_distance_in_loop.ml"
          ~rule:"distance-in-loop" ~count:6 ~suppressed:1);
    test_case "distance-in-loop is silent outside lib/router" (fun () ->
        expect_fixture "lib/router/r8_distance_in_loop.ml"
          ~rule:"distance-in-loop" ~as_:"lib/arch/r8_distance_in_loop.ml"
          ~count:0);
    test_case "clean fixture is clean under every rule" (fun () ->
        let findings, suppressed = lint_fixture ~rules:Registry.all "clean.ml" in
        check_int "no findings" 0 (List.length findings);
        check_int "no suppressions" 0 suppressed);
    test_case "findings carry file, 1-based line and severity" (fun () ->
        let findings, _ =
          lint_fixture ~rules:[ rule "poly-compare" ] "r2_poly_compare.ml"
        in
        match findings with
        | f :: _ ->
            check_string "file"
              (Filename.concat (fixture_dir ()) "r2_poly_compare.ml")
              f.Finding.file;
            check_int "line" 4 f.Finding.line;
            check_bool "severity" true (f.Finding.severity = Finding.Error)
        | [] -> Alcotest.fail "expected findings");
    test_case "domain-escape flags a top-level lazy under lib/ only"
      (fun () ->
        let name = "lib/sat/r10_toplevel_lazy.ml" in
        let findings, suppressed =
          lint_fixture ~rules:[ rule "domain-escape" ] name
        in
        check_int "one suppressed" 1 suppressed;
        (match findings with
        | [ f ] -> check_int "the shared table" 7 f.Finding.line
        | l -> Alcotest.failf "expected 1 finding, got %d" (List.length l));
        expect_fixture name ~rule:"domain-escape"
          ~as_:"bench/r10_toplevel_lazy.ml" ~count:0);
    test_case "every catalogued rule fires on its compiled fixture" (fun () ->
        (* A rule that silently stops matching the Typedtree turns this
           red rather than leaving the @lint gate vacuously green. *)
        let report =
          Engine.run ~rules:Registry.all ~root:(repo_root ()) [ fixture_dir () ]
        in
        check_int "every fixture has a cmt" 0
          (List.length report.Engine.missing);
        List.iter
          (fun (r : Registry.t) ->
            check_bool
              (r.Registry.name ^ " has a finding")
              true
              (List.exists
                 (fun f -> String.equal f.Finding.rule r.Registry.name)
                 report.Engine.findings))
          Registry.all);
  ]

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

let suppression_tests =
  [
    test_case "suppressed fixture keeps nothing, counts five" (fun () ->
        let findings, suppressed =
          lint_fixture ~rules:Registry.all "suppressed.ml"
        in
        List.iter
          (fun f -> Printf.eprintf "unexpected: %s\n" (Finding.to_human f))
          findings;
        check_int "no findings survive" 0 (List.length findings);
        check_int "five silenced" 5 suppressed);
    test_case "scan recognizes the three comment forms" (fun () ->
        let src =
          "let x = compare (* lint: poly-compare — why *)\n\
           (* lint: all — why *)\n\
           let y = 2\n\
           let z = 3 (* not a suppression *)\n"
        in
        let t = Suppress.scan src in
        check_int "two suppressions" 2 (Suppress.count t);
        check_bool "same line" true
          (Suppress.suppressed t ~line:1 ~rule:"poly-compare");
        check_bool "other rules stay" false
          (Suppress.suppressed t ~line:1 ~rule:"nondet-source");
        check_bool "wildcard covers the next line" true
          (Suppress.suppressed t ~line:3 ~rule:"float-discipline");
        check_bool "wildcard is standalone-only downward" false
          (Suppress.suppressed t ~line:4 ~rule:"float-discipline"));
    test_case "trailing comment does not bless the following line" (fun () ->
        let src =
          "let a = 1 (* lint: poly-compare — same line only *)\n\
           let b = List.sort compare xs\n"
        in
        let t = Suppress.scan src in
        check_bool "line 2 not covered" false
          (Suppress.suppressed t ~line:2 ~rule:"poly-compare"));
  ]

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let finding ~file ~line ~rule =
  Finding.v ~file ~line ~col:0 ~rule ~severity:Finding.Error "msg"

let baseline_tests =
  [
    test_case "of_findings -> render -> load -> apply round-trips" (fun () ->
        let findings =
          [
            finding ~file:"bin/a.ml" ~line:3 ~rule:"nondet-source";
            finding ~file:"bin/a.ml" ~line:9 ~rule:"nondet-source";
            finding ~file:"bench/b.ml" ~line:1 ~rule:"poly-compare";
          ]
        in
        let entries = Baseline.of_findings findings in
        let tmp = Filename.temp_file "qls_lint" ".baseline" in
        Fun.protect
          ~finally:(fun () -> Sys.remove tmp)
          (fun () ->
            let oc = open_out tmp in
            output_string oc (Baseline.render entries);
            close_out oc;
            match Baseline.load tmp with
            | Error e -> Alcotest.fail e
            | Ok loaded ->
                let applied = Baseline.apply loaded findings in
                check_int "everything waived" 0
                  (List.length applied.Baseline.kept);
                check_int "waived count" 3 applied.Baseline.waived;
                check_int "nothing stale" 0
                  (List.length applied.Baseline.stale)));
    test_case "an exhausted allowance keeps the excess findings" (fun () ->
        let entries =
          [ { Baseline.file = "bin/a.ml"; rule = "nondet-source"; allowed = 1 } ]
        in
        let findings =
          [
            finding ~file:"bin/a.ml" ~line:3 ~rule:"nondet-source";
            finding ~file:"bin/a.ml" ~line:9 ~rule:"nondet-source";
          ]
        in
        let applied = Baseline.apply entries findings in
        check_int "one kept" 1 (List.length applied.Baseline.kept);
        check_int "one waived" 1 applied.Baseline.waived;
        (match applied.Baseline.kept with
        | [ f ] -> check_int "the later line survives" 9 f.Finding.line
        | _ -> Alcotest.fail "expected exactly one kept finding"));
    test_case "a paid-down allowance is reported stale" (fun () ->
        let entries =
          [ { Baseline.file = "bin/a.ml"; rule = "nondet-source"; allowed = 5 } ]
        in
        let applied =
          Baseline.apply entries
            [ finding ~file:"bin/a.ml" ~line:3 ~rule:"nondet-source" ]
        in
        check_int "nothing kept" 0 (List.length applied.Baseline.kept);
        check_int "stale entry surfaced" 1 (List.length applied.Baseline.stale));
    test_case "a missing baseline file loads as empty" (fun () ->
        match Baseline.load "does/not/exist.baseline" with
        | Ok [] -> ()
        | Ok _ -> Alcotest.fail "expected no entries"
        | Error e -> Alcotest.fail e);
  ]

(* ------------------------------------------------------------------ *)
(* Concurrency rules (R9–R12) over the whole fixture tree              *)
(* ------------------------------------------------------------------ *)

(* Run the engine over the compiled typed_fixtures tree under one rule;
   the fixture libraries' cmts are build deps of this test. *)
let run_typed_fixtures rule_name =
  let report =
    Engine.run ~rules:[ rule rule_name ] ~root:(repo_root ()) [ fixture_dir () ]
  in
  check_int "every fixture file has a cmt" 0
    (List.length report.Engine.missing);
  report

let expect_typed rule_name ~findings ~suppressed:sup =
  test_case
    (Printf.sprintf "%s fires %d time(s) on the typed fixtures" rule_name
       findings)
    (fun () ->
      let report = run_typed_fixtures rule_name in
      List.iter
        (fun f -> check_string "rule tag" rule_name f.Finding.rule)
        report.Engine.findings;
      check_int "finding count" findings (List.length report.Engine.findings);
      check_int "suppressed count" sup report.Engine.suppressed)

let typed_rule_tests =
  [
    expect_typed "guarded-by" ~findings:4 ~suppressed:1;
    expect_typed "domain-escape" ~findings:9 ~suppressed:2;
    expect_typed "blocking-under-mutex" ~findings:3 ~suppressed:1;
    expect_typed "cancel-poll-coverage" ~findings:2 ~suppressed:1;
    test_case "guarded-by resolves the annotation across modules" (fun () ->
        let report = run_typed_fixtures "guarded-by" in
        check_bool "a finding lands in tf_r9_cross.ml" true
          (List.exists
             (fun f ->
               Filename.basename f.Finding.file = "tf_r9_cross.ml"
               && f.Finding.line = 9)
             report.Engine.findings));
    test_case "cancel-poll-coverage credits transitive local polls" (fun () ->
        let report = run_typed_fixtures "cancel-poll-coverage" in
        List.iter
          (fun f ->
            check_bool "only the two seeded sites fire" true
              (List.mem f.Finding.line [ 7; 38 ]))
          report.Engine.findings);
    test_case "engine covers every fixture module" (fun () ->
        let report = run_typed_fixtures "guarded-by" in
        check_int "files walked" 16 report.Engine.files);
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let parity_tests =
  [
    test_case "registry wraps every rule exactly once" (fun () ->
        check_int "catalogue size" 11 (List.length Registry.all);
        let names = List.map (fun (r : Registry.t) -> r.Registry.name) Registry.all in
        check_int "names unique" 11
          (List.length (List.sort_uniq String.compare names)));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel walk: jobs must not change the report                      *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  [
    test_case "jobs=4 report is bit-identical to jobs=1" (fun () ->
        let root = repo_root () in
        let paths = [ Filename.concat root "test/lint/typed_fixtures" ] in
        let run jobs = Engine.run ~jobs ~rules:Registry.all ~root paths in
        let a = run 1 and b = run 4 in
        check_int "files" a.Engine.files b.Engine.files;
        check_int "suppressed" a.Engine.suppressed b.Engine.suppressed;
        Alcotest.(check (list string))
          "findings identical and identically ordered"
          (List.map Finding.to_human a.Engine.findings)
          (List.map Finding.to_human b.Engine.findings));
  ]

(* ------------------------------------------------------------------ *)
(* Driver: baseline staleness and the write/check cycle                *)
(* ------------------------------------------------------------------ *)

let with_temp_baseline f =
  let tmp = Filename.temp_file "qls_lint_test" ".baseline" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ()) (fun () -> f tmp)

(* Drive the real driver over the compiled fixtures (violations
   guaranteed). *)
let driver_opts =
  {
    Driver.default_opts with
    Driver.paths = [ "typed_fixtures" ];
    rules = [ "poly-compare"; "nondet-source"; "float-discipline" ];
  }

let driver_tests =
  [
    test_case "findings exit 1; a fresh baseline waives them to exit 0"
      (fun () ->
        with_temp_baseline (fun tmp ->
            check_int "violations found" 1 (Driver.execute driver_opts);
            check_int "write-baseline exits 0" 0
              (Driver.execute
                 { driver_opts with Driver.write_baseline = Some tmp });
            check_int "baselined run is clean" 0
              (Driver.execute
                 {
                   driver_opts with
                   Driver.baseline = Some tmp;
                   check_stale = true;
                 })));
    test_case "--check fails on a stale entry; --write-baseline prunes it"
      (fun () ->
        with_temp_baseline (fun tmp ->
            check_int "seed the baseline" 0
              (Driver.execute
                 { driver_opts with Driver.write_baseline = Some tmp });
            (* Append an entry no finding pays down any more. *)
            let oc = open_out_gen [ Open_append ] 0o644 tmp in
            output_string oc
              (Baseline.render
                 [
                   {
                     Baseline.file = "typed_fixtures/gone.ml";
                     rule = "poly-compare";
                     allowed = 3;
                   };
                 ]);
            close_out oc;
            check_int "stale is a note without --check" 0
              (Driver.execute { driver_opts with Driver.baseline = Some tmp });
            check_int "stale fails with --check" 1
              (Driver.execute
                 {
                   driver_opts with
                   Driver.baseline = Some tmp;
                   check_stale = true;
                 });
            check_int "rewrite prunes" 0
              (Driver.execute
                 { driver_opts with Driver.write_baseline = Some tmp });
            match Baseline.load tmp with
            | Error e -> Alcotest.fail e
            | Ok entries ->
                check_bool "stale entry pruned" false
                  (List.exists
                     (fun e -> String.equal e.Baseline.file "typed_fixtures/gone.ml")
                     entries)));
    test_case "unknown rule names exit 2" (fun () ->
        check_int "usage error" 2
          (Driver.execute { driver_opts with Driver.rules = [ "no-such-rule" ] }));
    test_case "a file with no .cmt is an error, not a silent pass" (fun () ->
        let dir = Filename.temp_dir "qls_lint_test" "" in
        let path = Filename.concat dir "unbuilt.ml" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove path;
            Sys.rmdir dir)
          (fun () ->
            let oc = open_out path in
            output_string oc "let x = compare\n";
            close_out oc;
            check_int "configuration error" 2
              (Driver.execute
                 { Driver.default_opts with Driver.root = dir; paths = [ path ] })));
  ]

(* ------------------------------------------------------------------ *)
(* SARIF sink: structural validity per the 2.1.0 schema essentials     *)
(* ------------------------------------------------------------------ *)

(* A deliberately tiny JSON reader — objects, arrays, strings, ints —
   just enough to assert the SARIF skeleton instead of substring-matching. *)
module Json = struct
  type t =
    | Str of string
    | Num of int
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t') then begin
        advance ();
        skip_ws ()
      end
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c" c));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                (* \uXXXX: keep the raw escape, fidelity is irrelevant here *)
                Buffer.add_string b "\\u"
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              if peek () = ',' then begin
                advance ();
                members ((k, v) :: acc)
              end
              else begin
                expect '}';
                Obj (List.rev ((k, v) :: acc))
              end
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              if peek () = ',' then begin
                advance ();
                elems (v :: acc)
              end
              else begin
                expect ']';
                Arr (List.rev (v :: acc))
              end
            in
            elems []
      | c when c = '-' || (c >= '0' && c <= '9') ->
          let start = !pos in
          advance ();
          while !pos < n && peek () >= '0' && peek () <= '9' do
            advance ()
          done;
          Num (int_of_string (String.sub s start (!pos - start)))
      | c -> raise (Bad (Printf.sprintf "unexpected %c" c))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function
    | Obj fields -> (
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Bad ("missing member " ^ k)))
    | _ -> raise (Bad ("not an object at " ^ k))

  let str = function Str s -> s | _ -> raise (Bad "not a string")
  let num = function Num i -> i | _ -> raise (Bad "not a number")
  let arr = function Arr l -> l | _ -> raise (Bad "not an array")
end

let sarif_tests =
  [
    test_case "render satisfies the 2.1.0 schema essentials" (fun () ->
        let findings =
          [
            Finding.v ~file:"lib/a.ml" ~line:3 ~col:7 ~rule:"guarded-by"
              ~severity:Finding.Error "a \"quoted\" message\nwith a newline";
            Finding.v ~file:"bench/b.ml" ~line:0 ~col:0 ~rule:"poly-compare"
              ~severity:Finding.Error "whole-file finding";
          ]
        in
        let doc = Json.parse (Sarif.render ~rules:Registry.all ~findings) in
        check_bool "$schema names 2.1.0" true
          (let s = Json.(str (member "$schema" doc)) in
           let suffix = "sarif-schema-2.1.0.json" in
           let n = String.length s and ls = String.length suffix in
           n >= ls && String.sub s (n - ls) ls = suffix);
        check_string "version" "2.1.0" Json.(str (member "version" doc));
        let run = List.hd Json.(arr (member "runs" doc)) in
        let driver = Json.(member "driver" (member "tool" run)) in
        check_string "driver name" "qls_lint" Json.(str (member "name" driver));
        check_bool "semanticVersion present" true
          (String.length Json.(str (member "semanticVersion" driver)) > 0);
        let rules = Json.(arr (member "rules" driver)) in
        check_int "full catalogue" (List.length Registry.all) (List.length rules);
        let rule_ids = List.map (fun r -> Json.(str (member "id" r))) rules in
        List.iter
          (fun (r : Registry.t) ->
            check_bool (r.Registry.name ^ " catalogued") true
              (List.mem r.Registry.name rule_ids))
          Registry.all;
        let results = Json.(arr (member "results" run)) in
        check_int "one result per finding" 2 (List.length results);
        List.iter
          (fun res ->
            let rid = Json.(str (member "ruleId" res)) in
            let idx = Json.(num (member "ruleIndex" res)) in
            check_string "ruleIndex points into the catalogue" rid
              (List.nth rule_ids idx);
            check_bool "level is a SARIF level" true
              (List.mem Json.(str (member "level" res)) [ "error"; "warning"; "note" ]);
            check_bool "message text nonempty" true
              (String.length Json.(str (member "text" (member "message" res))) > 0);
            let region =
              Json.(
                member "region"
                  (member "physicalLocation"
                     (List.hd (arr (member "locations" res)))))
            in
            check_bool "startLine is 1-based" true
              (Json.(num (member "startLine" region)) >= 1);
            check_bool "startColumn is 1-based" true
              (Json.(num (member "startColumn" region)) >= 1))
          results;
        check_string "columnKind" "utf16CodeUnits"
          Json.(str (member "columnKind" run)));
    test_case "driver --sarif writes the file" (fun () ->
        let tmp = Filename.temp_file "qls_lint_test" ".sarif" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            check_int "findings exit 1" 1
              (Driver.execute { driver_opts with Driver.sarif = Some tmp });
            let doc = Json.parse (read_file tmp) in
            let run = List.hd Json.(arr (member "runs" doc)) in
            check_bool "results recorded" true
              (not (List.is_empty Json.(arr (member "results" run))))));
  ]

(* ------------------------------------------------------------------ *)
(* Self-check: the library tree must stay lint-clean                   *)
(* ------------------------------------------------------------------ *)

let self_check_tests =
  [
    test_case "lib/ is lint-clean modulo in-source suppressions" (fun () ->
        let root = repo_root () in
        let report =
          Engine.run ~rules:Registry.all ~root [ Filename.concat root "lib" ]
        in
        check_bool "linted a non-trivial tree" true (report.Engine.files > 20);
        check_int "every file has a cmt" 0 (List.length report.Engine.missing);
        List.iter
          (fun f -> Printf.eprintf "%s\n" (Finding.to_human f))
          report.Engine.findings;
        check_int "unsuppressed findings in lib/" 0
          (List.length report.Engine.findings));
  ]

let () =
  Alcotest.run "qls_lint"
    [
      ("rules", rule_tests);
      ("typed-rules", typed_rule_tests);
      ("registry-parity", parity_tests);
      ("parallel-walk", parallel_tests);
      ("suppression", suppression_tests);
      ("baseline", baseline_tests);
      ("driver", driver_tests);
      ("sarif", sarif_tests);
      ("self-check", self_check_tests);
    ]
