(* purity.lint engine tests: lint the planted-violation fixtures in
   test/lint_fixtures/ (excluded from the real @lint run) under a config
   that treats them as hot-path / recovery / audited code, and assert that
   every rule class fires at the planted file:line, that the
   interprocedural passes (escape / hotalloc / raises) catch their planted
   fixtures with the right witness chains, that in-source waivers suppress
   exactly their finding, that stale waivers error, that the baseline
   machinery suppresses and goes stale correctly, that the call-graph edge
   set is independent of build order, and that the digest cache serves
   warm runs without changing the report. *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_lint.exe` it is the project root. *)
let fixture_objs =
  let rel = "lint_fixtures/.lint_fixtures.objs/byte" in
  let candidates = [ rel; "test/" ^ rel; "_build/default/test/" ^ rel ] in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> rel

let cmt_for name =
  let want = String.lowercase_ascii name ^ ".cmt" in
  let files = Array.to_list (Sys.readdir fixture_objs) in
  match
    List.find_opt
      (fun f ->
        let f = String.lowercase_ascii f in
        String.length f >= String.length want
        && String.sub f (String.length f - String.length want) (String.length want)
           = want)
      files
  with
  | Some f -> Filename.concat fixture_objs f
  | None -> Alcotest.failf "no %s cmt under %s" name fixture_objs

let cfg =
  {
    Lint.Rules.hot_path_dirs = [ "lint_fixtures/" ];
    recovery_files = [ "fx_partial.ml" ];
    audited_unsafe = [ "fx_audited.ml" ];
    audited_domains = [ "fx_audited.ml" ];
    exclude = [];
    mutable_types = [];
    handled_exns = [ "Exit" ];
  }

let check name =
  match Lint.Engine.check_cmt cfg (cmt_for name) with
  | Ok (Some (file, r)) -> (file, r)
  | Ok None -> Alcotest.failf "%s: cmt holds no implementation" name
  | Error e -> Alcotest.fail e

let fired (r : Lint.Engine.result) =
  List.map (fun (f : Lint.Finding.t) -> (Lint.Finding.rule_name f.rule, f.line)) r.findings

let rules_at = Alcotest.(list (pair string int))

let graph_of names =
  Lint.Callgraph.build
    (List.map (fun n -> (snd (check n)).Lint.Engine.summary) names)

let rule_line_chain (f : Lint.Finding.t) =
  ((Lint.Finding.rule_name f.rule, f.line), f.chain)

let pass_shape = Alcotest.(list (pair (pair string int) (list string)))

(* ---- per-file rule classes ---- *)

let test_determinism () =
  let file, r = check "fx_determinism" in
  Alcotest.(check bool) "file recorded" true (Filename.basename file = "fx_determinism.ml");
  Alcotest.check rules_at "wall clock and global Random fire; seeded state does not"
    [ ("determinism", 3); ("determinism", 5) ]
    (fired r)

let test_unsafe () =
  let _, r = check "fx_unsafe" in
  Alcotest.check rules_at "unaudited unsafe_get fires" [ ("unsafe", 3) ] (fired r)

let test_domain () =
  let _, r = check "fx_domain" in
  Alcotest.check rules_at
    "Atomic.make and Domain.spawn fire (under the escape rule that subsumed \
     the path-based domain rule); pure chunk arithmetic does not"
    [ ("escape", 3); ("escape", 5) ]
    (fired r);
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "escape is an error" "error"
        (Lint.Finding.severity_name f.severity))
    r.findings

let test_audited () =
  let _, r = check "fx_audited" in
  Alcotest.check rules_at "audited module is exempt" [] (fired r)

let test_hotpath () =
  let _, r = check "fx_hotpath" in
  Alcotest.check rules_at
    "poly =/compare/hash and string-keyed Hashtbl fire; immediates do not"
    [ ("hotpath", 3); ("hotpath", 5); ("hotpath", 7); ("hotpath", 9); ("hotpath", 11) ]
    (fired r)

let test_partial () =
  let _, r = check "fx_partial" in
  Alcotest.check rules_at "List.hd and Option.get fire in recovery code"
    [ ("partial", 3); ("partial", 5) ]
    (fired r)

let test_severities () =
  let _, r = check "fx_determinism" in
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "determinism is an error" "error"
        (Lint.Finding.severity_name f.severity))
    r.findings;
  let _, r = check "fx_hotpath" in
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "hotpath is a warning" "warning"
        (Lint.Finding.severity_name f.severity))
    r.findings

(* ---- interprocedural passes ---- *)

let test_escape_pass () =
  let g = graph_of [ "fx_escape" ] in
  let fs = Lint.Escape.run cfg g in
  Alcotest.check pass_shape
    "ref captured into Pool.map fires at the submission site; \
     immutable-capture closure does not"
    [ (("escape", 5), [ "Fx_escape.racy" ]) ]
    (List.map rule_line_chain fs)

let test_alloc_pass () =
  let g = graph_of [ "fx_hotalloc" ] in
  let fs = Lint.Alloc.run cfg g in
  Alcotest.check pass_shape
    "Bytes.create two hops below the hotpath root carries the witness \
     chain; the coldpath cut is not entered"
    [
      ( ("hotalloc", 4),
        [ "Fx_hotalloc.root"; "Fx_hotalloc.mid"; "Fx_hotalloc.leaf" ] );
    ]
    (List.map rule_line_chain fs)

let test_raises_pass () =
  let g = graph_of [ "fx_raise" ] in
  let fs = Lint.Raises.run cfg g in
  Alcotest.check pass_shape
    "partial match and failwith reachable from the recovery root fire; \
     the match-with-exception boundary stops the walk into deep_fail"
    [
      (("raises", 5), [ "Fx_raise.recover"; "Fx_raise.step" ]);
      (("raises", 7), [ "Fx_raise.recover"; "Fx_raise.fail_path" ]);
    ]
    (List.map rule_line_chain fs)

let test_handled_exns () =
  let g = graph_of [ "fx_raise" ] in
  let cfg' = { cfg with Lint.Rules.handled_exns = [ "Exit"; "Failure" ] } in
  let fs = Lint.Raises.run cfg' g in
  Alcotest.check pass_shape "declared-handled Failure is not a finding"
    [ (("raises", 5), [ "Fx_raise.recover"; "Fx_raise.step" ]) ]
    (List.map rule_line_chain fs)

(* ---- call-graph determinism ---- *)

let test_edges_stable =
  let names =
    [ "fx_escape"; "fx_hotalloc"; "fx_raise"; "fx_domain"; "fx_hotpath" ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"edge set independent of build order"
       (QCheck.make
          QCheck.Gen.(
            map
              (fun l -> l)
              (shuffle_l
                 (List.map (fun n -> (snd (check n)).Lint.Engine.summary) names))))
       (fun perm ->
         let reference =
           Lint.Callgraph.edges
             (Lint.Callgraph.build
                (List.map (fun n -> (snd (check n)).Lint.Engine.summary) names))
         in
         Lint.Callgraph.edges (Lint.Callgraph.build perm) = reference))

(* ---- waivers ---- *)

let test_waiver_suppresses () =
  let _, r = check "fx_waived" in
  Alcotest.check rules_at "waived finding is suppressed, no stale error" [] (fired r);
  Alcotest.(check int) "one finding waived" 1 r.waived;
  Alcotest.(check int) "one waiver present" 1 r.waivers

let test_stale_waiver () =
  let _, r = check "fx_stale" in
  (match r.findings with
  | [ f ] ->
    Alcotest.(check string) "stale waiver errors" "waiver" (Lint.Finding.rule_name f.rule);
    Alcotest.(check string) "stale waiver is an error severity" "error"
      (Lint.Finding.severity_name f.severity)
  | fs -> Alcotest.failf "expected exactly one stale-waiver finding, got %d" (List.length fs));
  Alcotest.(check int) "nothing waived" 0 r.waived

(* ---- baseline machinery, on in-memory entries ---- *)

let baseline_lines =
  [
    "# comment";
    "";
    "unsafe lint_fixtures/fx_unsafe.ml -- planted";
    "partial lint_fixtures/fx_never.ml -- never fires";
  ]

let test_baseline_apply () =
  let entries, errors = Lint.Baseline.parse ~path:"baseline.txt" baseline_lines in
  Alcotest.(check int) "baseline parses clean" 0 (List.length errors);
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let _, r = check "fx_unsafe" in
  let kept, suppressed = Lint.Baseline.apply entries r.findings in
  Alcotest.(check int) "unsafe finding suppressed by baseline" 1 suppressed;
  Alcotest.check rules_at "nothing kept" [] (fired { r with findings = kept });
  let stale = Lint.Baseline.stale ~path:"baseline.txt" entries in
  (match stale with
  | [ f ] ->
    Alcotest.(check string) "unused entry goes stale" "waiver"
      (Lint.Finding.rule_name f.rule);
    Alcotest.(check int) "stale report points at the baseline line" 4 f.line
  | fs -> Alcotest.failf "expected one stale entry, got %d" (List.length fs))

let test_baseline_rejects_unwaivable () =
  let entries, errors =
    Lint.Baseline.parse ~path:"baseline.txt" [ "waiver lib/core/state.ml" ]
  in
  Alcotest.(check int) "waiver rule cannot be baselined" 0 (List.length entries);
  Alcotest.(check int) "malformed entry reported" 1 (List.length errors)

(* ---- stale-baseline hardening + driver-level runs ---- *)

let fixture_cmts names = List.map cmt_for names

let test_stale_baseline_flag () =
  let cmts = fixture_cmts [ "fx_audited" ] in
  let soft_entries, _ =
    Lint.Baseline.parse ~path:"baseline.txt" [ "partial fx_never.ml -- never" ]
  in
  let soft = Lint.run cfg ~baseline:soft_entries ~baseline_path:"baseline.txt" cmts in
  Alcotest.(check bool) "stale entry is a non-failing note by default" true
    (Lint.Report.clean soft);
  Alcotest.(check int) "note emitted" 1 (List.length soft.Lint.Report.notes);
  let hard_entries, _ =
    Lint.Baseline.parse ~path:"baseline.txt" [ "partial fx_never.ml -- never" ]
  in
  let hard =
    Lint.run ~stale_hard:true cfg ~baseline:hard_entries ~baseline_path:"baseline.txt" cmts
  in
  Alcotest.(check bool) "--stale-baseline makes it a hard error" false
    (Lint.Report.clean hard);
  match hard.Lint.Report.findings with
  | [ f ] ->
    Alcotest.(check string) "reported under waiver" "waiver"
      (Lint.Finding.rule_name f.rule)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_cache () =
  let cmts = fixture_cmts [ "fx_escape"; "fx_hotalloc"; "fx_raise" ] in
  let tmp = Filename.temp_file "purity_lint_cache" ".bin" in
  Sys.remove tmp;
  let cold = Lint.run ~cache_path:tmp cfg ~baseline:[] ~baseline_path:"" cmts in
  let warm = Lint.run ~cache_path:tmp cfg ~baseline:[] ~baseline_path:"" cmts in
  (if Sys.file_exists tmp then Sys.remove tmp);
  Alcotest.(check int) "cold run misses every cmt" 3 cold.Lint.Report.cache_misses;
  Alcotest.(check int) "cold run hits none" 0 cold.Lint.Report.cache_hits;
  Alcotest.(check int) "warm run hits every cmt" 3 warm.Lint.Report.cache_hits;
  Alcotest.(check int) "warm run misses none" 0 warm.Lint.Report.cache_misses;
  Alcotest.(check (list string)) "warm report identical to cold"
    (List.map Lint.Finding.to_string cold.Lint.Report.findings)
    (List.map Lint.Finding.to_string warm.Lint.Report.findings);
  Alcotest.(check bool) "interprocedural findings survive the cache" true
    (List.exists
       (fun (f : Lint.Finding.t) -> f.rule = Lint.Finding.Hotalloc)
       warm.Lint.Report.findings)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "unsafe" `Quick test_unsafe;
          Alcotest.test_case "domain (escape alias)" `Quick test_domain;
          Alcotest.test_case "audited exemption" `Quick test_audited;
          Alcotest.test_case "hotpath" `Quick test_hotpath;
          Alcotest.test_case "partial" `Quick test_partial;
          Alcotest.test_case "severities" `Quick test_severities;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "escape pass" `Quick test_escape_pass;
          Alcotest.test_case "alloc pass" `Quick test_alloc_pass;
          Alcotest.test_case "raises pass" `Quick test_raises_pass;
          Alcotest.test_case "handled exns" `Quick test_handled_exns;
          test_edges_stable;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "waiver suppresses" `Quick test_waiver_suppresses;
          Alcotest.test_case "stale waiver errors" `Quick test_stale_waiver;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "apply + stale" `Quick test_baseline_apply;
          Alcotest.test_case "unwaivable rules rejected" `Quick test_baseline_rejects_unwaivable;
          Alcotest.test_case "stale-baseline flag" `Quick test_stale_baseline_flag;
          Alcotest.test_case "digest cache" `Quick test_cache;
        ] );
    ]
