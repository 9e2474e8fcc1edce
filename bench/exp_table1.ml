(* E1 — Table 1: Purity vs a disk array on 32 KiB I/O.

   Both systems run against the same simulated clock: the Purity array is
   the full storage engine over the flash shelf; the comparator is the
   disk-array model (spindles + battery-backed write cache). We measure
   IOPS and latency; the $/RU/W rows are spec-sheet constants taken from
   the paper and scaled by our measured IOPS ratios where the paper
   derives them that way. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload
module Disk = Purity_baseline.Disk_array
module Clock = Purity_sim.Clock
module Histogram = Purity_util.Histogram
module Rng = Purity_util.Rng

let ops = 3000
let concurrency = 32
let io_blocks = 64 (* 32 KiB *)

let run_purity () =
  let clock = Purity_sim.Clock.create () in
  (* media-path comparison: the controller read cache is disabled so the
     latency column measures flash vs spindles, not DRAM *)
  let config = { (bench_config ()) with Fa.read_cache_entries = 0 } in
  let a = Fa.create ~config ~clock () in
  let volumes = [ ("lun0", 16384); ("lun1", 16384) ] in
  Wl.provision a ~volumes;
  (* prefill so reads have something to fetch *)
  let dg = Purity_workload.Datagen.create ~seed:11L in
  List.iter
    (fun (v, size) ->
      let step = 1024 in
      let rec fill b =
        if b < size then begin
          write_ok clock a ~volume:v ~block:b
            (Purity_workload.Datagen.compressible dg (step * 512) ~target_ratio:3.0);
          fill (b + step)
        end
      in
      fill 0)
    volumes;
  let wl = Wl.uniform ~seed:21L ~volumes ~read_fraction:0.7 ~io_blocks () in
  await clock (Wl.run a wl ~ops ~concurrency)

let run_disk () =
  let clock = Clock.create () in
  let d = Disk.create ~clock ~seed:22L () in
  let rng = Rng.create ~seed:23L in
  let start = Clock.now clock in
  let completed = ref 0 and issued = ref 0 in
  let finished = ref None in
  let rec pump () =
    if !issued < ops then begin
      incr issued;
      let k () =
        incr completed;
        if !completed = ops then finished := Some (Clock.now clock -. start) else pump ()
      in
      if Rng.float rng 1.0 < 0.7 then Disk.read d ~bytes:(io_blocks * 512) k
      else Disk.write d ~bytes:(io_blocks * 512) k
    end
  in
  for _ = 1 to concurrency do
    pump ()
  done;
  Clock.run clock;
  let elapsed = Option.get !finished in
  let iops = float_of_int ops /. (elapsed /. 1e6) in
  (iops, Disk.read_lat d)

let run () =
  section "E1 / Table 1 — Purity vs performance disk array (32 KiB I/O, 70/30 r/w)";
  let p = run_purity () in
  let disk_iops, disk_read = run_disk () in
  let p_lat = Histogram.percentile p.Wl.read_lat 50.0 in
  let d_lat = Histogram.percentile disk_read 50.0 in
  let improvement a b = Printf.sprintf "%.2fx" (a /. b) in
  Printf.printf "  (simulated hardware: 11 flash drives vs 120 spindles)\n\n";
  row4 "Metric" "Purity (sim)" "Disk (sim)" "Improvement";
  row4 "Peak IOPS @ 32 KiB"
    (Printf.sprintf "%.0f" p.Wl.iops)
    (Printf.sprintf "%.0f" disk_iops)
    (improvement p.Wl.iops disk_iops);
  row4 "Read latency p50 (us)"
    (Printf.sprintf "%.0f" p_lat)
    (Printf.sprintf "%.0f" d_lat)
    (improvement d_lat p_lat);
  row4 "Read latency p99.9 (us)"
    (Printf.sprintf "%.0f" (Histogram.percentile p.Wl.read_lat 99.9))
    (Printf.sprintf "%.0f" (Histogram.percentile disk_read 99.9))
    (improvement
       (Histogram.percentile disk_read 99.9)
       (Histogram.percentile p.Wl.read_lat 99.9));
  Printf.printf "\n  Paper's Table 1 (spec-sheet rows, for reference):\n";
  row4 "Metric" "Purity" "Disk (VNX)" "Improvement";
  row4 "Peak IOPS @ 32 KiB" "200K" "65K" "3.08x";
  row4 "Latency" "1 ms" "5 ms" "5x";
  row4 "Usable capacity" "40 TB" "25 TB" "1.6x";
  row4 "Rack units" "8" "28" "3.5x";
  row4 "$/GB" "$5" "$18" "3.6x";
  row4 "IOPS/W" "161" "18.6" "8.6x";
  print_newline ();
  shape "flash wins IOPS by >2x and p50 latency by >3x"
    (p.Wl.iops > 2.0 *. disk_iops && d_lat > 3.0 *. p_lat)
