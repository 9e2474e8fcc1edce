(* E3 — Figure 5 / §4.3: controller failover recovery time, full
   segment-header scan vs frontier-set scan, across array fill levels.

   The paper: the full scan is linear in array capacity (12 s on their
   hardware) and the frontier set cuts it to 0.1 s, keeping failover well
   under the 30 s client timeout. We sweep the amount of data on the
   array and measure both modes' simulated recovery times. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Recovery = Purity_core.Recovery
module Dg = Purity_workload.Datagen

let run_at ~num_aus ~data_blocks =
  let clock, a = make_array ~num_aus () in
  ok (Fa.create_volume a "db" ~blocks:(data_blocks * 2));
  let dg = Dg.create ~seed:31L in
  let step = 2048 in
  let rec fill b =
    if b < data_blocks then begin
      write_ok clock a ~volume:"db" ~block:b
        (Dg.compressible dg (min step (data_blocks - b) * 512) ~target_ratio:2.0);
      fill (b + step)
    end
  in
  fill 0;
  ignore (await clock (fun k -> Fa.checkpoint a k));
  (* a little post-checkpoint activity so recovery has real work *)
  write_ok clock a ~volume:"db" ~block:0 (Dg.compressible dg (64 * 512) ~target_ratio:2.0);
  Fa.crash a;
  let frontier = await clock (fun k -> Fa.failover ~mode:Recovery.Frontier_scan a k) in
  Fa.crash a;
  let full = await clock (fun k -> Fa.failover ~mode:Recovery.Full_scan a k) in
  (frontier, full)

let run () =
  section "E3 / Figure 5 — failover recovery: full header scan vs frontier set";
  Printf.printf
    "  (fixed 8 MiB of recent data; growing raw capacity, as the paper's scan\n    \   cost is linear in array size, not in data written since checkpoint)\n\n";
  Printf.printf "  %-14s %-12s %16s %14s %16s %14s %8s\n" "raw capacity" "phys AUs"
    "full scan" "(headers)" "frontier scan" "(headers)" "speedup";
  let last_ratio = ref 0.0 in
  List.iter
    (fun num_aus ->
      let frontier, full = run_at ~num_aus ~data_blocks:16384 in
      let ratio = full.Recovery.duration_us /. frontier.Recovery.duration_us in
      last_ratio := ratio;
      Printf.printf "  %-14s %-12d %16s %14d %16s %14d %7.1fx\n"
        (human_bytes (num_aus * 11 * (4096 + (8 * 32768))))
        (num_aus * 11) (human_us full.Recovery.duration_us) full.Recovery.headers_scanned
        (human_us frontier.Recovery.duration_us)
        frontier.Recovery.headers_scanned ratio)
    [ 64; 128; 256; 512; 1024; 2048 ];
  Printf.printf
    "\n  Paper: 12 s -> 0.1 s (120x) at production scale; full scan grows with\n\
    \  capacity while the frontier scan stays flat.\n";
  shape "frontier scan >10x faster at the largest size" (!last_ratio > 10.0)
