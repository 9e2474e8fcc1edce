(* E12 — §5.1: running past rated P/E with scrubbing.

   "Periodically scrubbing and rewriting data ensures that worn-out flash
   is rewritten more frequently than the P/E calculations assumed,
   allowing arrays to run well past rated wear out."

   Two identical arrays are worn to their P/E rating; simulated months
   pass in steps. One array scrubs each step, the other never does. We
   read the full data set after each step and count media errors the
   read path could not hide. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Drive = Purity_ssd.Drive
module Clock = Purity_sim.Clock
module Dg = Purity_workload.Datagen

let data_blocks = 8192
let steps = 12
let step_us = 3.0e10 (* ~8 simulated hours per scrub cycle against 1-year rated retention *)

let make_worn () =
  let clock = Clock.create () in
  (* no controller read cache: this experiment must observe the media *)
  let config = { (bench_config ()) with Fa.read_cache_entries = 0 } in
  let a = Fa.create ~config ~clock () in
  ok (Fa.create_volume a "v" ~blocks:(data_blocks * 2));
  let dg = Dg.create ~seed:121L in
  let rec fill b =
    if b < data_blocks then begin
      write_ok clock a ~volume:"v" ~block:b (Dg.compressible dg (1024 * 512) ~target_ratio:2.0);
      fill (b + 1024)
    end
  in
  fill 0;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  Array.iter (fun d -> Drive.wear_to d ~pe:3000) (Purity_ssd.Shelf.drives (Fa.shelf a));
  (clock, a)

let failed_reads clock a =
  let errors = ref 0 in
  let rec go b =
    if b < data_blocks then begin
      (match await clock (Fa.read a ~volume:"v" ~block:b ~nblocks:512) with
      | Ok _ -> ()
      | Error _ -> incr errors);
      go (b + 512)
    end
  in
  go 0;
  !errors

let run () =
  section "E12 / §5.1 — wear-out, retention and scrubbing";
  let clock_s, scrubbed = make_worn () in
  let clock_n, neglected = make_worn () in
  Printf.printf
    "  arrays worn to rated P/E (3000); each step ages the flash, then one\n\
    \  array scrubs. 16 full-volume reads per step; errors are reads the\n\
    \  RAID could not reconstruct.\n\n";
  Printf.printf "  %-8s %22s %26s %22s\n" "step" "scrubbed: read errors" "(segments relocated)"
    "unscrubbed: errors";
  let total_s = ref 0 and total_n = ref 0 in
  for step = 1 to steps do
    Clock.advance clock_s step_us;
    Clock.advance clock_n step_us;
    let r = await clock_s (fun k -> Fa.scrub scrubbed (fun r -> k r)) in
    let es = failed_reads clock_s scrubbed in
    let en = failed_reads clock_n neglected in
    total_s := !total_s + es;
    total_n := !total_n + en;
    Printf.printf "  %-8d %22d %26d %22d\n" step es r.Purity_core.Scrub.segments_relocated en
  done;
  Printf.printf "\n  totals: scrubbed=%d unscrubbed=%d\n" !total_s !total_n;
  Printf.printf
    "\n  Paper: scrubbing lets worn arrays keep serving (they built an array\n\
    \  from worn-out flash and saw no application-level errors).\n";
  shape "scrubbed array has no unrecoverable reads" (!total_s = 0);
  shape "neglected array eventually loses data" (!total_n > !total_s)
