(* Metadata hot path (wall clock): the bloom-fenced point probe and the
   batched run resolver against the naive per-patch scan they replaced.
   Runs inside the Micro section so its rows land in BENCH_Micro.json
   next to the other host-CPU numbers.

   The pyramid is shaped like a real block index after a sequence of
   checkpoint epochs: each epoch flushed one patch over its own block
   band (so fences are selective), within a band only even blocks were
   written (so blooms see absent-but-in-range keys), and patch sizes
   grow with age just under the tiering threshold so the stack stays
   deep instead of collapsing into one patch. *)

module Pyramid = Purity_pyramid.Pyramid
module Keys = Purity_core.Keys
module Rng = Purity_util.Rng
module Json = Purity_telemetry.Json

let medium = 7
let epochs = 10
let newest_epoch_writes = 96

(* Oldest first; each newer patch must stay under half the previous
   one's fact count or auto-compaction tiers them together. *)
let epoch_writes e =
  let f = ref newest_epoch_writes in
  for _ = e + 1 to epochs - 1 do
    f := (!f * 5 / 2) + 1
  done;
  !f

let band_base =
  let bases = Array.make (epochs + 1) 0 in
  for e = 1 to epochs do
    bases.(e) <- bases.(e - 1) + (2 * epoch_writes (e - 1))
  done;
  bases

let build () =
  let p =
    Pyramid.create ~memtable_flush_count:1_000_000 ~policy:Pyramid.Tombstones
      ~name:"blocks" ()
  in
  let seq = ref 0L in
  for e = 0 to epochs - 1 do
    for i = 0 to epoch_writes e - 1 do
      seq := Int64.add !seq 1L;
      let block = band_base.(e) + (2 * i) in
      Pyramid.insert p ~seq:!seq
        ~key:(Keys.block_key ~medium ~block)
        ~value:(string_of_int block)
    done;
    Pyramid.flush p
  done;
  p

(* Processor time is plenty at these op counts; keep the harness free of
   unix/bechamel plumbing for one experiment. *)
let time_ops f = Bclock.time_ops ~warmup:2_000 ~batch:500 f

let emit name (ops_s, ns_op) =
  Bench_util.emit_row ~kind:"bench_micro"
    [
      ("name", Json.Str name);
      ("ns_per_op", Json.Float ns_op);
      ("ops_per_sec", Json.Float ops_s);
    ];
  Printf.printf "  %-34s %12.0f ns/op %14.0f ops/s\n%!" name ns_op ops_s

let run_in_section () =
  let p = build () in
  let total_blocks = band_base.(epochs) in
  let rng = Rng.create ~seed:0xF00DL in
  let sample n pick = Array.init n (fun _ -> pick ()) in
  (* present: a written (even) block, epoch-uniform — reads have temporal
     locality, so the hot set spreads over recent (small) patches rather
     than block-uniformly over the big old ones; absent: the odd block
     next to a written one — inside every relevant fence, never written *)
  let present =
    sample 512 (fun () ->
        let e = Rng.int rng epochs in
        let block = band_base.(e) + (2 * Rng.int rng (epoch_writes e)) in
        Keys.block_key ~medium ~block)
  in
  let absent =
    sample 512 (fun () ->
        Keys.block_key ~medium ~block:((2 * Rng.int rng (total_blocks / 2)) + 1))
  in
  (* the optimised paths must be bit-identical to the scans they replace *)
  Array.iter
    (fun key ->
      if Pyramid.find p key <> Pyramid.find_naive p key then
        failwith "metadata hot path: fenced lookup diverges from naive")
    (Array.append present absent);
  let run_n = 64 in
  let run_base = band_base.(epochs - 1) in
  let run =
    Pyramid.find_run p ~n:run_n
      ~key_of:(fun i -> Keys.block_key ~medium ~block:(run_base + i))
      ~index:(fun key -> Keys.block_key_block key - run_base)
  in
  for i = 0 to run_n - 1 do
    if
      Pyramid.resolve_fact p run.(i)
      <> Pyramid.find p (Keys.block_key ~medium ~block:(run_base + i))
    then failwith "metadata hot path: find_run diverges from point lookups"
  done;
  let cursor = ref 0 in
  let next keys =
    cursor := (!cursor + 1) land 511;
    keys.(!cursor)
  in
  let naive_present = time_ops (fun () -> ignore (Pyramid.find_naive p (next present))) in
  let fast_present = time_ops (fun () -> ignore (Pyramid.find p (next present))) in
  let naive_absent = time_ops (fun () -> ignore (Pyramid.find_naive p (next absent))) in
  let fast_absent = time_ops (fun () -> ignore (Pyramid.find p (next absent))) in
  let run_point =
    time_ops (fun () ->
        for i = 0 to run_n - 1 do
          ignore (Pyramid.find p (Keys.block_key ~medium ~block:(run_base + i)))
        done)
  in
  let run_batched =
    time_ops (fun () ->
        ignore
          (Pyramid.find_run p ~n:run_n
             ~key_of:(fun i -> Keys.block_key ~medium ~block:(run_base + i))
             ~index:(fun key -> Keys.block_key_block key - run_base)))
  in
  (* a representative metadata op mix: resolve one small run (the read
     path) plus a present and an absent point probe (overwrite
     accounting, thin/dedup checks) *)
  let mix find_point resolve_run () =
    ignore (find_point p (next present));
    ignore (find_point p (next absent));
    resolve_run ()
  in
  let mixed_naive =
    time_ops
      (mix Pyramid.find_naive (fun () ->
           for i = 0 to 7 do
             ignore (Pyramid.find_naive p (Keys.block_key ~medium ~block:(run_base + i)))
           done))
  in
  let mixed_fast =
    time_ops
      (mix Pyramid.find (fun () ->
           ignore
             (Pyramid.find_run p ~n:8
                ~key_of:(fun i -> Keys.block_key ~medium ~block:(run_base + i))
                ~index:(fun key -> Keys.block_key_block key - run_base))))
  in
  Printf.printf "\n  Metadata hot path (%d-patch block index, %d mapped blocks):\n" epochs
    (total_blocks / 2);
  emit "meta-lookup-present-naive" naive_present;
  emit "meta-lookup-present-fenced" fast_present;
  emit "meta-lookup-absent-naive" naive_absent;
  emit "meta-lookup-absent-fenced" fast_absent;
  emit "meta-resolve-64-point" run_point;
  emit "meta-resolve-64-batched" run_batched;
  emit "meta-mixed-op-naive" mixed_naive;
  emit "meta-mixed-op-fenced" mixed_fast;
  let speedup_present = fst fast_present /. fst naive_present in
  let speedup_absent = fst fast_absent /. fst naive_absent in
  let speedup_run = fst run_batched /. fst run_point in
  let speedup_mixed = fst mixed_fast /. fst mixed_naive in
  let probes, fence_skips, bloom_skips = Pyramid.probe_stats p in
  Bench_util.emit_row ~kind:"bench_metadata_hotpath"
    [
      ("present_speedup", Json.Float speedup_present);
      ("absent_speedup", Json.Float speedup_absent);
      ("batched_speedup", Json.Float speedup_run);
      ("mixed_speedup", Json.Float speedup_mixed);
      ("probes", Json.Int probes);
      ("fence_skips", Json.Int fence_skips);
      ("bloom_skips", Json.Int bloom_skips);
    ];
  Printf.printf
    "  speedups: present %.1fx, absent %.1fx, 64-block resolve %.1fx, mixed op %.1fx\n\
    \  probes %d, fence skips %d, bloom skips %d (%.0f%% of probes shed)\n"
    speedup_present speedup_absent speedup_run speedup_mixed probes fence_skips
    bloom_skips
    (100.0
    *. float_of_int (fence_skips + bloom_skips)
    /. float_of_int (max 1 probes));
  Bench_util.shape "mixed metadata op >= 2x naive, results identical" (speedup_mixed >= 2.0)
