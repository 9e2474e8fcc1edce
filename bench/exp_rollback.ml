(* E15 (§5.2.1 in-text claim) — transaction rollback rates vs storage
   latency. The paper argues rollback rates fall super-linearly with
   latency, so a 10x latency improvement cuts rollbacks by "more than
   10x"; this prints the classic analytic model with our measured
   latencies plugged in. *)

open Bench_util
module Rb = Purity_baseline.Rollback

let run () =
  section "E15 / §5.2.1 — transaction rollback rates vs storage latency";
  let p = Rb.default_params in
  Printf.printf
    "  model: %.0f TPS, %.0f locks/txn over %.0e objects, %.1f ms CPU + %.0f I/Os per txn\n\n"
    p.Rb.tps p.Rb.locks_per_txn p.Rb.db_locks (p.Rb.think_s *. 1000.0) p.Rb.ios_per_txn;
  Printf.printf "  %-24s %18s\n" "storage latency" "rollback probability";
  List.iter
    (fun (s, prob) -> Printf.printf "  %-24s %17.4f%%\n" (human_us (s *. 1e6)) (100.0 *. prob))
    (Rb.series p);
  (* the paper's comparison: ~5 ms disk vs ~0.5 ms flash *)
  let imp = Rb.improvement p ~disk_latency_s:0.005 ~flash_latency_s:0.0005 in
  Printf.printf "\n  disk (5 ms) vs Purity (0.5 ms): rollback rate falls %.1fx\n" imp;
  Printf.printf
    "\n  Paper: \"Purity decreases request latencies by an order of magnitude,\n\
    \  potentially reducing rollback rates by more than 10x\" — and notes that\n\
    \  customers underestimate the speedup: a database at 60%% CPU / 40%% I/O\n\
    \  wait often gains ~10x, not the naive 1.67x, because lower rollback\n\
    \  rates compound with the latency win.\n";
  shape "rollback improvement >= 10x for 10x latency"
    ~detail:(Printf.sprintf "%.1fx" imp)
    (imp >= 10.0)
