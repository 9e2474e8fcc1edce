(* The experiment harness: one sub-command per paper table/figure (see
   DESIGN.md's experiment index), `micro` for the Bechamel CPU suite, and
   no argument (or `--all`) to run everything — writing the output that
   EXPERIMENTS.md records. Exits 1 if any shape check diverged. *)

let experiments =
  [
    ("e1", "Table 1: Purity vs disk array", Exp_table1.run);
    ("e2", "Table 2: scale-out consolidation", Exp_scaleout.run);
    ("e3", "Figure 5: frontier-set recovery", Exp_recovery.run);
    ("e4", "Figure 6: medium table", Exp_medium.run);
    ("e5", "Figure 7: five-minute rule", Exp_five_minute.run);
    ("e6", "Tail latency / read-around-write", Exp_tail_latency.run);
    ("e7", "Throughput through failures", Exp_degraded.run);
    ("e8", "Data reduction by workload", Exp_reduction.run);
    ("e9", "Elision vs tombstones", Exp_elision.run);
    ("e10", "Metadata page compression", Exp_metadata.run);
    ("e11", "FTL random-write pathology", Exp_ftl.run);
    ("e12", "Wear-out and scrubbing", Exp_wear.run);
    ("e13", "Replication (extension)", Exp_replication.run);
    ("e14", "Secondary cache warming", Exp_warming.run);
    ("e15", "Transaction rollback model", Exp_rollback.run);
    ("micro", "CPU micro-benchmarks", Micro.run);
    ("kernels", "Data-plane kernels, ref vs word-at-a-time", Exp_kernels.run);
  ]

(* `micro` already runs the kernel rows inside its section, so the
   all-experiments sweep skips the standalone entry. *)
let all_experiments = List.filter (fun (id, _, _) -> id <> "kernels") experiments

let usage () =
  print_endline "usage: main.exe [--all | e1 ... e15 | micro | kernels]";
  print_endline "experiments:";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-6s %s\n" id desc) experiments

(* Tally the shape checks the run made; exit 1 if any diverged. *)
let verdict () =
  let checks = List.rev !Bench_util.shapes in
  let diverged = List.filter (fun (_, ok) -> not ok) checks in
  Printf.printf "\n%d shape checks, %d diverged\n" (List.length checks) (List.length diverged);
  List.iter (fun (claim, _) -> Printf.printf "  DIVERGES: %s\n" claim) diverged;
  if diverged <> [] then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: ("-h" | "--help") :: _ -> usage ()
  | [ _ ] | [ _; "--all" ] ->
    print_endline "Purity reproduction — experiment harness (all experiments)";
    print_endline "Simulated-time results; see EXPERIMENTS.md for paper-vs-measured.";
    List.iter (fun (_, _, run) -> run ()) all_experiments;
    verdict ()
  | _ :: picks ->
    List.iter
      (fun pick ->
        match List.find_opt (fun (id, _, _) -> id = pick) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S\n" pick;
          usage ();
          exit 1)
      picks;
    verdict ()
  | [] -> usage ()
