(* E13 (§1 in-text claim) — asynchronous off-site replication.

   "A single Purity appliance can provide over 7 GiB/s of throughput ...
   even through multiple device failures, and while providing
   asynchronous off-site replication."

   We measure the same 32 KiB workload with replication cycles running
   concurrently against a WAN-linked target array, and show the delta
   protocol: after the initial sync, only changed blocks cross the wire. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload
module Repl = Purity_replication.Replication
module Clock = Purity_sim.Clock
module Ac = Purity_activecluster.Activecluster
module Histogram = Purity_util.Histogram

let setup () =
  let clock = Clock.create () in
  let cfg = bench_config () in
  let source = Fa.create ~config:cfg ~clock () in
  let target = Fa.create ~config:{ cfg with Fa.seed = 4242L } ~clock () in
  let repl = Repl.create ~source ~target () in
  (clock, source, target, repl)

let prefill clock source volumes =
  let dg = Purity_workload.Datagen.create ~seed:131L in
  List.iter
    (fun (v, size) ->
      let rec fill b =
        if b < size / 2 then begin
          write_ok clock source ~volume:v ~block:b
            (Purity_workload.Datagen.compressible dg (2048 * 512) ~target_ratio:2.0);
          fill (b + 2048)
        end
      in
      fill 0)
    volumes

let run_workload clock source volumes ~while_replicating repl =
  let wl = Wl.uniform ~seed:132L ~volumes ~read_fraction:0.7 ~io_blocks:64 () in
  let result = ref None in
  Wl.run source wl ~ops:2000 ~concurrency:16 (fun r -> result := Some r);
  if while_replicating then begin
    (* replication cycles on a cadence until the workload finishes *)
    let rec cycle () =
      if !result = None then
        Repl.replicate_all repl (fun _ ->
            Clock.schedule clock ~delay:20_000.0 (fun () ->
                if !result = None then cycle ()))
    in
    cycle ()
  end;
  Clock.run clock;
  Option.get !result

let rec run () =
  section "E13 / §1 — throughput while replicating (extension experiment)";
  let volumes = [ ("lun0", 16384); ("lun1", 16384) ] in
  (* baseline: no replication *)
  let clock, source, _target, repl = setup () in
  Wl.provision source ~volumes;
  prefill clock source volumes;
  let base = run_workload clock source volumes ~while_replicating:false repl in
  (* with replication active *)
  let clock, source, target, repl = setup () in
  Wl.provision source ~volumes;
  prefill clock source volumes;
  List.iter (fun (v, _) -> ignore (Repl.protect repl v)) volumes;
  (* initial sync before the measured window *)
  ignore (await clock (fun k -> Repl.replicate_all repl k));
  let with_repl = run_workload clock source volumes ~while_replicating:true repl in
  let s = Repl.stats repl in
  Printf.printf "  %-30s %14s %14s\n" "" "no replication" "replicating";
  Printf.printf "  %-30s %14.0f %14.0f\n" "IOPS @ 32 KiB" base.Wl.iops with_repl.Wl.iops;
  Printf.printf "  %-30s %14.0f %14.0f\n" "read p99.9 (us)"
    (Purity_util.Histogram.percentile base.Wl.read_lat 99.9)
    (Purity_util.Histogram.percentile with_repl.Wl.read_lat 99.9);
  Printf.printf "\n  replication: %d cycles, %d changed blocks, %s over the wire\n"
    s.Repl.cycles s.Repl.total_changed_blocks (human_bytes s.Repl.total_shipped_bytes);
  (* drain the workload's tail of un-replicated writes first *)
  ignore (await clock (fun k -> Repl.replicate_all repl k));
  (* delta efficiency: one more small write, one more cycle *)
  write_ok clock source ~volume:"lun0" ~block:0
    (Purity_workload.Datagen.random (Purity_workload.Datagen.create ~seed:133L) (64 * 512));
  let r = await clock (fun k -> Repl.replicate_once repl "lun0" k) in
  Printf.printf "  delta cycle after one 32 KiB write: %d blocks, %s shipped\n"
    r.Repl.changed_blocks (human_bytes r.Repl.shipped_bytes);
  Printf.printf "  target array now serves %d volumes (consistent snapshots)\n"
    (List.length (Fa.list_volumes target));
  let ratio = with_repl.Wl.iops /. base.Wl.iops in
  Printf.printf
    "\n  Paper: full service during asynchronous replication.\n";
  shape "replication costs < 20% of IOPS"
    ~detail:(Printf.sprintf "%.0f%%" (100.0 *. ratio))
    (ratio > 0.8);
  shape "delta cycle ships only the change"
    ~detail:(Printf.sprintf "%d blocks" r.Repl.changed_blocks)
    (r.Repl.changed_blocks = 64);
  run_activecluster ()

(* Synchronous active-active (ActiveCluster): the cost of the mirror.
   Every acked write has crossed the interconnect and landed on both
   arrays, so the round trip is on the host's write path — versus the
   async protocol above, which keeps it off. We measure the same write
   stream three ways: plain single-array writes, mirrored writes in a
   stretched pod, and solo writes after a partition fenced the peer
   (mediation already decided; the RTT is gone again). *)
and run_activecluster () =
  section "Replication — synchronous active-active (stretched pod) write latency";
  let clock = Clock.create () in
  let cfg = bench_config () in
  let a = Fa.create ~config:cfg ~clock () in
  let b = Fa.create ~config:{ cfg with Fa.seed = 4242L } ~clock () in
  let ac = Ac.create ~a ~b ~pod:"pod0" () in
  (match Ac.create_stretched ac "lun0" ~blocks:16384 with
  | Ok () -> ()
  | Error _ -> failwith "bench: create_stretched failed");
  let dg = Purity_workload.Datagen.create ~seed:134L in
  let io_blocks = 64 (* 32 KiB *) in
  let measure n write =
    let h = Histogram.create () in
    for i = 0 to n - 1 do
      let block = i * io_blocks mod 16384 in
      let data = Purity_workload.Datagen.compressible dg (io_blocks * 512) ~target_ratio:2.0 in
      let t0 = Clock.now clock in
      let done_ = ref false in
      write ~block data (fun () ->
          Histogram.record h (Clock.now clock -. t0);
          done_ := true);
      Clock.run clock;
      if not !done_ then failwith "bench: mirrored write never completed"
    done;
    h
  in
  let ops = 300 in
  let local =
    measure ops (fun ~block data k ->
        Fa.write a ~volume:"lun0" ~block data (function
          | Ok () -> k ()
          | Error _ -> failwith "bench: write failed"))
  in
  let mirrored =
    measure ops (fun ~block data k ->
        Ac.write ac ~prefer:Ac.A ~volume:"lun0" ~block data (function
          | Ok () -> k ()
          | Error _ -> failwith "bench: mirrored write failed"))
  in
  (* partition: first write pays the mediation race, the rest run solo *)
  Ac.cut_link ac;
  ignore
    (await clock (fun k -> Ac.write ac ~prefer:Ac.A ~volume:"lun0" ~block:0
        (Purity_workload.Datagen.compressible dg (io_blocks * 512) ~target_ratio:2.0)
        k));
  let solo =
    measure ops (fun ~block data k ->
        Ac.write ac ~prefer:Ac.A ~volume:"lun0" ~block data (function
          | Ok () -> k ()
          | Error _ -> failwith "bench: solo write failed"))
  in
  pp_lat "local write (32 KiB)" local;
  pp_lat "mirrored write (sync)" mirrored;
  pp_lat "solo write (fenced peer)" solo;
  (* failback, for the record *)
  Ac.heal_link ac;
  (match await clock (fun k -> Ac.settle ac k) with
  | Ac.Sync, _ ->
    let c = Ac.counters ac in
    Printf.printf "\n  failback: resynced %d blocks, %d mirror writes acked\n"
      c.Ac.resync_blocks c.Ac.mirror_acked
  | st, _ -> Printf.printf "\n  failback did not reconverge (%s)\n" (Ac.status_name st));
  let p50 h = Histogram.percentile h 50.0 in
  Printf.printf "\n  Paper: ActiveCluster adds one interconnect round trip to writes.\n";
  shape "mirrored p50 > local p50"
    ~detail:(Printf.sprintf "%.0f vs %.0f us" (p50 mirrored) (p50 local))
    (p50 mirrored > p50 local);
  shape "solo writes shed the round trip"
    ~detail:(Printf.sprintf "%.0f us" (p50 solo))
    (p50 solo < p50 mirrored)
