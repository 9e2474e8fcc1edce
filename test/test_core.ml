module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Recovery = Purity_core.Recovery
module Rng = Purity_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let bs = Fa.block_size

(* Small geometry: 6 drives, 3+2, 64 KiB AUs, 8 KiB write units. *)
let test_config =
  {
    Fa.default_config with
    Fa.drives = 6;
    k = 3;
    m = 2;
    write_unit = 8 * 1024;
    drive_config =
      {
        Purity_ssd.Drive.default_config with
        Purity_ssd.Drive.au_size = 64 * 1024 + 4096;
        num_aus = 256;
        dies = 4;
      };
    memtable_flush = 100_000;
  }

let make_array ?(config = test_config) () =
  let clock = Clock.create () in
  let a = Fa.create ~config ~clock () in
  (clock, a)

let await clock f =
  let result = ref None in
  f (fun r -> result := Some r);
  Clock.run clock;
  match !result with Some r -> r | None -> Alcotest.fail "operation never completed"

let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected error"

let write_ok clock a ~volume ~block data =
  match await clock (Fa.write a ~volume ~block data) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed"

let read_ok clock a ~volume ~block ~nblocks =
  match await clock (Fa.read a ~volume ~block ~nblocks) with
  | Ok data -> data
  | Error _ -> Alcotest.fail "read failed"

(* the segment holding a block's cblock *)
let block_segment a ~volume ~block =
  let st = Fa.state a in
  let medium = (Purity_core.State.Stbl.find st.Purity_core.State.volumes volume).medium in
  (Option.get (Purity_core.State.resolve_range st ~medium ~block ~nblocks:1).(0))
    .Purity_core.Blockref.segment

let rng = Rng.create ~seed:0xC0DEL
let random_data nblocks = Bytes.to_string (Rng.bytes rng (nblocks * bs))

(* compressible but non-trivial data *)
let textish nblocks =
  let unit = "all work and no play makes jack a dull boy. " in
  let need = nblocks * bs in
  let b = Buffer.create need in
  while Buffer.length b < need do
    Buffer.add_string b unit
  done;
  Buffer.sub b 0 need

(* ---------- volume management ---------- *)

let test_volume_lifecycle () =
  let _clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:256);
  check bool "exists" true (Fa.volume_exists a "db");
  (match Fa.create_volume a "db" ~blocks:10 with
  | Error `Exists -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  check (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.bool int)) "list"
    [ ("db", true, 256) ]
    (List.map (fun (n, k, b) -> (n, k = `Volume, b)) (Fa.list_volumes a));
  ok (Fa.delete_volume a "db");
  check bool "gone" false (Fa.volume_exists a "db")

let test_write_read_roundtrip () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let data = random_data 16 in
  write_ok clock a ~volume:"v" ~block:10 data;
  let got = read_ok clock a ~volume:"v" ~block:10 ~nblocks:16 in
  check bool "data back" true (got = data)

let test_unwritten_blocks_read_zero () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 in
  check bool "zeros" true (got = String.make (8 * bs) '\000')

let test_overwrite_latest_wins () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (String.make (4 * bs) 'a');
  write_ok clock a ~volume:"v" ~block:0 (String.make (4 * bs) 'b');
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:4 in
  check bool "second write wins" true (got = String.make (4 * bs) 'b')

let test_partial_overwrite () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let base = random_data 16 in
  write_ok clock a ~volume:"v" ~block:0 base;
  let patch = random_data 2 in
  write_ok clock a ~volume:"v" ~block:5 patch;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:16 in
  let expect =
    String.sub base 0 (5 * bs) ^ patch ^ String.sub base (7 * bs) (9 * bs)
  in
  check bool "patched view" true (got = expect)

let test_large_write_spans_segments () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  (* 512 KiB write: many cblocks, several segios at this geometry *)
  let data = random_data 1024 in
  write_ok clock a ~volume:"v" ~block:0 data;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:1024 in
  check bool "large roundtrip" true (got = data)

let test_write_errors () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  (match await clock (Fa.write a ~volume:"nope" ~block:0 (String.make bs 'x')) with
  | Error `No_such_volume -> ()
  | _ -> Alcotest.fail "missing volume");
  (match await clock (Fa.write a ~volume:"v" ~block:0 "short") with
  | Error `Unaligned -> ()
  | _ -> Alcotest.fail "unaligned accepted");
  (match await clock (Fa.write a ~volume:"v" ~block:15 (String.make (2 * bs) 'x')) with
  | Error `Out_of_range -> ()
  | _ -> Alcotest.fail "overflow accepted");
  match await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:17) with
  | Error `Out_of_range -> ()
  | _ -> Alcotest.fail "read overflow accepted"

(* ---------- snapshots & clones ---------- *)

let test_snapshot_isolation () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let original = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 original;
  ok (Fa.snapshot a ~volume:"v" ~snap:"v@1");
  (* overwrite after snapshot *)
  write_ok clock a ~volume:"v" ~block:0 (String.make (8 * bs) 'n');
  let snap_view = read_ok clock a ~volume:"v@1" ~block:0 ~nblocks:8 in
  let live_view = read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 in
  check bool "snapshot frozen" true (snap_view = original);
  check bool "volume sees new data" true (live_view = String.make (8 * bs) 'n')

let test_snapshot_read_only () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  ok (Fa.snapshot a ~volume:"v" ~snap:"s");
  match await clock (Fa.write a ~volume:"s" ~block:0 (String.make bs 'x')) with
  | Error `Read_only -> ()
  | _ -> Alcotest.fail "snapshot writable"

let test_clone_shares_then_diverges () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "gold" ~blocks:64);
  let image = textish 32 in
  write_ok clock a ~volume:"gold" ~block:0 image;
  ok (Fa.snapshot a ~volume:"gold" ~snap:"gold@1");
  ok (Fa.clone a ~snapshot:"gold@1" ~volume:"vm1");
  (* the clone reads the shared image *)
  let v = read_ok clock a ~volume:"vm1" ~block:0 ~nblocks:32 in
  check bool "clone sees image" true (v = image);
  (* divergence is private *)
  write_ok clock a ~volume:"vm1" ~block:0 (String.make (2 * bs) 'z');
  let gold = read_ok clock a ~volume:"gold" ~block:0 ~nblocks:2 in
  check bool "gold untouched" true (gold = String.sub image 0 (2 * bs))

let test_many_snapshots_chain () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  let versions =
    List.init 5 (fun i ->
        let d = String.make (4 * bs) (Char.chr (Char.code 'a' + i)) in
        write_ok clock a ~volume:"v" ~block:0 d;
        ok (Fa.snapshot a ~volume:"v" ~snap:(Printf.sprintf "v@%d" i));
        d)
  in
  List.iteri
    (fun i d ->
      let got = read_ok clock a ~volume:(Printf.sprintf "v@%d" i) ~block:0 ~nblocks:4 in
      check bool (Printf.sprintf "snapshot %d intact" i) true (got = d))
    versions

let test_delete_snapshot_keeps_volume () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  let data = random_data 4 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ok (Fa.snapshot a ~volume:"v" ~snap:"s");
  ok (Fa.delete_snapshot a "s");
  check bool "snapshot gone" false (Fa.volume_exists a "s");
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:4 in
  check bool "volume data intact" true (got = data)

(* ---------- data reduction ---------- *)

let test_compression_reduces_stored_bytes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  write_ok clock a ~volume:"v" ~block:0 (textish 512);
  let s = Fa.stats a in
  check bool "stored << logical" true
    (s.Fa.stored_bytes_written * 3 < s.Fa.logical_bytes_written)

let test_dedup_absorbs_identical_writes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  let image = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 image;
  let stored_after_first = (Fa.stats a).Fa.stored_bytes_written in
  (* the same image at 9 more places (VDI-style) *)
  for i = 1 to 9 do
    write_ok clock a ~volume:"v" ~block:(i * 64) image
  done;
  let s = Fa.stats a in
  check bool "dedup found blocks" true (s.Fa.dedup_blocks >= 9 * 56);
  check bool "stored grew sub-linearly" true
    (s.Fa.stored_bytes_written < 3 * stored_after_first);
  (* and the data is still correct everywhere *)
  for i = 0 to 9 do
    let got = read_ok clock a ~volume:"v" ~block:(i * 64) ~nblocks:64 in
    check bool (Printf.sprintf "copy %d intact" i) true (got = image)
  done

let test_dedup_disabled_config () =
  let clock, a =
    make_array ~config:{ test_config with Fa.inline_dedup = false } ()
  in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let image = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 image;
  write_ok clock a ~volume:"v" ~block:64 image;
  check int "no dedup" 0 (Fa.stats a).Fa.dedup_blocks

(* ---------- fault tolerance ---------- *)

let test_reads_through_two_drive_failures () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let data = random_data 256 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  Fa.pull_drive a 0;
  Fa.pull_drive a 3;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:256 in
  check bool "all data through double failure" true (got = data)

let test_writes_continue_after_drive_pull () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  Fa.pull_drive a 2;
  let data = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 data;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  check bool "degraded write ok" true (got = data)

let test_rebuild_drive () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let data = random_data 128 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  Fa.pull_drive a 1;
  let rebuilt = await clock (fun k -> Fa.rebuild_drive a 1 (fun n -> k n)) in
  check bool "segments rebuilt" true (rebuilt > 0);
  (* now pull two MORE drives: data must still be served because nothing
     depends on drive 1 anymore *)
  Fa.pull_drive a 2;
  Fa.pull_drive a 4;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:128 in
  check bool "redundancy restored" true (got = data)

(* ---------- recovery & failover ---------- *)

let test_failover_preserves_acked_writes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let d1 = random_data 32 and d2 = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 d1;
  write_ok clock a ~volume:"v" ~block:100 d2;
  (* crash with data still in NVRAM/open segio *)
  Fa.crash a;
  (match await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:1) with
  | Error `Offline -> ()
  | _ -> Alcotest.fail "crashed array served a read");
  let report = await clock (fun k -> Fa.failover a k) in
  check bool "came back" true (Fa.is_online a);
  check bool "not cold" true (not report.Recovery.cold);
  let got1 = read_ok clock a ~volume:"v" ~block:0 ~nblocks:32 in
  let got2 = read_ok clock a ~volume:"v" ~block:100 ~nblocks:8 in
  check bool "write 1 survived" true (got1 = d1);
  check bool "write 2 survived" true (got2 = d2)

let test_failover_after_checkpoint () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let d1 = random_data 128 in
  write_ok clock a ~volume:"v" ~block:0 d1;
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  (* more writes after the checkpoint *)
  let d2 = random_data 16 in
  write_ok clock a ~volume:"v" ~block:512 d2;
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "pre-checkpoint data" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:128 = d1);
  check bool "post-checkpoint data" true
    (read_ok clock a ~volume:"v" ~block:512 ~nblocks:16 = d2)

let test_failover_preserves_snapshots_and_volumes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let original = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 original;
  ok (Fa.snapshot a ~volume:"v" ~snap:"v@1");
  write_ok clock a ~volume:"v" ~block:0 (String.make (8 * bs) 'n');
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "volumes restored" true (Fa.volume_exists a "v" && Fa.volume_exists a "v@1");
  let snap_view = read_ok clock a ~volume:"v@1" ~block:0 ~nblocks:8 in
  check bool "snapshot content survived failover" true (snap_view = original)

let test_double_failover () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let d = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.failover a k));
  write_ok clock a ~volume:"v" ~block:8 d;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "both writes alive after two failovers" true
    (read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 = d
    && read_ok clock a ~volume:"v" ~block:8 ~nblocks:8 = d)

(* A boot region that no longer decodes must not be mistaken for a
   factory-fresh array (which would skip the scan and lose everything):
   recovery falls back to a full header scan with no checkpoint, and
   every durably stored write comes back via log replay. *)
let test_corrupt_boot_region_falls_back_to_full_scan () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let d1 = random_data 128 in
  write_ok clock a ~volume:"v" ~block:0 d1;
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  let d2 = random_data 16 in
  write_ok clock a ~volume:"v" ~block:512 d2;
  Fa.crash a;
  Purity_core.Boot_region.write
    (Fa.state a).Purity_core.State.boot "not a boot blob" (fun () -> ());
  Clock.run clock;
  let report = await clock (fun k -> Fa.failover a k) in
  check bool "not treated as factory-fresh" true (not report.Recovery.cold);
  check bool "fell back to scanning headers" true (report.Recovery.headers_scanned > 0);
  check bool "checkpointed data survived via log replay" true
    (read_ok clock a ~volume:"v" ~block:0 ~nblocks:128 = d1);
  check bool "post-checkpoint data survived" true
    (read_ok clock a ~volume:"v" ~block:512 ~nblocks:16 = d2)

let test_frontier_recovery_faster_than_full () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:2048);
  write_ok clock a ~volume:"v" ~block:0 (random_data 512);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  write_ok clock a ~volume:"v" ~block:1024 (random_data 16);
  Fa.crash a;
  let r_frontier = await clock (fun k -> Fa.failover ~mode:Recovery.Frontier_scan a k) in
  Fa.crash a;
  let r_full = await clock (fun k -> Fa.failover ~mode:Recovery.Full_scan a k) in
  check bool
    (Printf.sprintf "frontier %.0fus vs full %.0fus" r_frontier.Recovery.duration_us
       r_full.Recovery.duration_us)
    true
    (r_frontier.Recovery.duration_us *. 2.0 < r_full.Recovery.duration_us);
  check bool "frontier scanned far fewer headers" true
    (r_frontier.Recovery.headers_scanned * 4 < r_full.Recovery.headers_scanned)

let test_availability_accounting () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (random_data 8);
  Clock.advance clock 1e7;
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  Clock.advance clock 1e7;
  let s = Fa.stats a in
  check bool "high availability" true (s.Fa.availability > 0.99 && s.Fa.availability <= 1.0)

(* A volume deleted just before a crash must stay deleted: its block
   facts are retired by an elide, and failover has to replay that elide
   from wherever it survived. Volumes "keep" (64 blocks) and "temp" (512
   blocks) are written and flushed, then "temp" is deleted. [settle] runs
   between the delete and the (optional) crash + failover. Returns live
   logical bytes, and physical bytes used after a GC pass. *)
let deleted_volume_outcome ~settle ~crash =
  let clock, a = make_array () in
  let rng = Rng.create ~seed:0xDE1L in
  let data n = Bytes.to_string (Rng.bytes rng (n * bs)) in
  ok (Fa.create_volume a "keep" ~blocks:64);
  ok (Fa.create_volume a "temp" ~blocks:512);
  write_ok clock a ~volume:"keep" ~block:0 (data 64);
  for i = 0 to 7 do
    write_ok clock a ~volume:"temp" ~block:(i * 64) (data 64)
  done;
  await clock (fun k -> Fa.flush a k);
  ok (Fa.delete_volume a "temp");
  settle clock a;
  if crash then begin
    Fa.crash a;
    ignore (await clock (fun k -> Fa.failover a k))
  end;
  check bool "temp stays deleted" false (Fa.volume_exists a "temp");
  let live = (Fa.stats a).Fa.live_logical_bytes in
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.5 a k));
  (live, (Fa.stats a).Fa.physical_bytes_used)

let nvram_payloads a =
  List.map
    (fun (r : Purity_ssd.Nvram.record) -> r.Purity_ssd.Nvram.payload)
    (Purity_ssd.Nvram.records (Purity_core.State.nvram (Fa.state a)))

let check_deleted_volume ~settle =
  let live, used = deleted_volume_outcome ~settle ~crash:true in
  let live', used' = deleted_volume_outcome ~settle ~crash:false in
  check int "only keep's blocks live" (64 * bs) live';
  check int "live bytes match the no-crash control" live' live;
  check int "GC reclaims as in the no-crash control" used' used

let elide_stashed a = List.exists (fun p -> String.length p > 0 && p.[0] = 'E') (nvram_payloads a)

(* Crash before the delete's segio flushes: the elides survive only as
   NVRAM stashes. *)
let test_deleted_volume_survives_crash_nvram () =
  check_deleted_volume ~settle:(fun _ a -> check bool "elides still in NVRAM" true (elide_stashed a))

(* Crash after the delete's records flushed and their stashes were
   trimmed: the elides survive only as segio log records. *)
let test_deleted_volume_survives_crash_log () =
  check_deleted_volume ~settle:(fun clock a ->
      await clock (fun k -> Fa.flush a k);
      check bool "no elide left in NVRAM" false (elide_stashed a))

(* An idle array's NVRAM stays flat across failovers: recovery re-records
   each surviving stash, and the next flush releases both copies. *)
let test_idle_nvram_flat_across_failovers () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "keep" ~blocks:64);
  ok (Fa.create_volume a "temp" ~blocks:64);
  write_ok clock a ~volume:"keep" ~block:0 (random_data 64);
  write_ok clock a ~volume:"temp" ~block:0 (random_data 64);
  await clock (fun k -> Fa.flush a k);
  ok (Fa.delete_volume a "temp");
  await clock (fun k -> Fa.flush a k);
  let records = List.length (nvram_payloads a) in
  for i = 1 to 4 do
    Fa.crash a;
    ignore (await clock (fun k -> Fa.failover a k));
    await clock (fun k -> Fa.flush a k);
    check int (Printf.sprintf "NVRAM records after failover %d" i) records
      (List.length (nvram_payloads a))
  done;
  check bool "temp stays deleted" false (Fa.volume_exists a "temp")

(* A seal fired by a metadata record's own log append must keep that
   record's stash: its log copy lands in the next segio, which has not
   flushed when the controller dies. *)
let test_seal_by_record_append_keeps_stash () =
  let clock, a = make_array () in
  let st = Fa.state a in
  let open_segio () = Option.get st.Purity_core.State.open_writer in
  ignore (Purity_core.State.store_blob st "x");
  (* leave the open segio 16 B short of full: no log record fits *)
  let room = Purity_segment.Writer.remaining (open_segio ()) in
  ignore (Purity_core.State.store_blob st (String.make (room - 16) 'f'));
  let sealed = Purity_segment.Writer.id (open_segio ()) in
  ok (Fa.create_volume a "v" ~blocks:64);
  check bool "the volume's first record sealed the segio" true
    (Purity_segment.Writer.id (open_segio ()) <> sealed);
  Clock.run clock;
  check bool "sealed segio flushed" true
    (Option.is_some (Purity_core.State.find_segment st sealed));
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  let data = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 data;
  check bool "v survives whole" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 = data)

(* A namespace op NVRAM cannot stash is refused, not lost: with NVRAM
   10 B short of full, every op returns Busy and changes nothing, before
   and after a crash. Once NVRAM drains, ops succeed and survive one. *)
let test_namespace_op_refused_when_nvram_full () =
  let module Nvram = Purity_ssd.Nvram in
  let clock, a = make_array ~config:{ test_config with Fa.nvram_capacity = 256 * 1024 } () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  ok (Fa.snapshot a ~volume:"v" ~snap:"s");
  let listing = Fa.list_volumes a in
  let nv = Purity_core.State.nvram (Fa.state a) in
  (* write intents committed but not yet applied (the clock stands), then
     a record no replay decodes, to 10 B short of capacity *)
  let chunk = 32 * 1024 in
  while Nvram.fits nv ~payload_len:(chunk + 16) do
    Fa.write a ~volume:"v" ~block:0 (random_data (chunk / bs)) ignore
  done;
  let filler = Nvram.capacity nv - Nvram.used_bytes nv - 10 - Nvram.record_bytes ~payload_len:0 in
  Nvram.commit nv { Nvram.seq = 0L; payload = String.make filler '.' } ignore;
  let busy what r = check bool (what ^ " refused Busy") true (r = Error `Busy) in
  busy "create" (Fa.create_volume a "newvol" ~blocks:64);
  busy "resize" (Fa.resize_volume a "v" ~blocks:2048);
  busy "snapshot" (Fa.snapshot a ~volume:"v" ~snap:"s2");
  busy "clone" (Fa.clone a ~snapshot:"s" ~volume:"c");
  busy "delete snapshot" (Fa.delete_snapshot a "s");
  busy "delete volume" (Fa.delete_volume a "v");
  check bool "namespace unchanged" true (Fa.list_volumes a = listing);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "namespace unchanged after failover" true (Fa.list_volumes a = listing);
  await clock (fun k -> Fa.flush a k);
  ok (Fa.create_volume a "newvol" ~blocks:64);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "newvol survives a crash" true (Fa.volume_exists a "newvol")

(* ---------- GC ---------- *)

let test_gc_reclaims_overwritten_space () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:2048);
  (* write then overwrite everything, twice: most early segments are dead *)
  for _ = 1 to 3 do
    let d = random_data 1024 in
    write_ok clock a ~volume:"v" ~block:0 d
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let used_before = (Fa.stats a).Fa.physical_bytes_used in
  let report = await clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:64 a (fun r -> k r)) in
  check bool "victims found" true (report.Purity_core.Gc.victims <> []);
  let used_after = (Fa.stats a).Fa.physical_bytes_used in
  check bool
    (Printf.sprintf "space reclaimed (%d -> %d)" used_before used_after)
    true (used_after < used_before);
  (* data still correct after GC *)
  let s = Fa.stats a in
  check bool "reduction sane" true (s.Fa.data_reduction > 0.0)

let test_gc_preserves_data () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:512);
  let keep = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 keep;
  (* churn elsewhere to create dead segments *)
  for _ = 1 to 4 do
    write_ok clock a ~volume:"v" ~block:128 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.1 ~max_victims:64 a (fun r -> k r)));
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  check bool "live data survived GC" true (got = keep)

let test_delete_volume_then_gc_reclaims () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "temp" ~blocks:2048);
  write_ok clock a ~volume:"temp" ~block:0 (random_data 2048);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let used_full = (Fa.stats a).Fa.physical_bytes_used in
  ok (Fa.delete_volume a "temp");
  (* elision makes the facts dead; GC reclaims the segments *)
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.5 ~max_victims:128 a (fun r -> k r)));
  let used_after = (Fa.stats a).Fa.physical_bytes_used in
  (* the volume's data segments come back; a handful of segments of GC /
     checkpoint bookkeeping remain *)
  check bool
    (Printf.sprintf "deleted volume reclaimed (%d -> %d)" used_full used_after)
    true
    (used_after * 2 < used_full)

let test_gc_after_failover () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  for _ = 1 to 3 do
    write_ok clock a ~volume:"v" ~block:0 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.failover a k));
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:32 a (fun r -> k r)));
  let s = Fa.stats a in
  check bool "array functional after failover+gc" true (s.Fa.segments_live > 0)

(* An overwrite acknowledged while GC's relocation read of the same block
   is in flight must win: the pass re-points only mappings nothing has
   superseded since its liveness scan. Block 0's cblock is the only live
   data in the victim, so the pass's first relocation read is block 0's;
   the read-fault probe (which never faults) issues the overwrite right
   after that read starts. *)
let test_gc_keeps_overwrite_during_relocation () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:512);
  write_ok clock a ~volume:"v" ~block:0 (random_data 64);
  (* churn that is overwritten later: block 0's segment ends up mostly dead *)
  for _ = 1 to 6 do
    write_ok clock a ~volume:"v" ~block:128 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let fresh = random_data 64 in
  let acked = ref false and reads_issued = ref 0 in
  Fa.set_read_fault a
    (Some
       (fun ~drive:_ ->
         incr reads_issued;
         if !reads_issued = 1 then
           Clock.schedule clock ~delay:0.0 (fun () ->
               Fa.write a ~volume:"v" ~block:0 fresh (fun r ->
                   ok r;
                   acked := true));
         false));
  let report = ref None in
  Fa.gc ~min_dead_ratio:0.6 ~max_victims:64 a (fun r -> report := Some r);
  while (not !acked) && Clock.step clock do
    ()
  done;
  check bool "overwrite acked" true !acked;
  check bool "overwrite acked before the pass ends" true (Option.is_none !report);
  Clock.run clock;
  Fa.set_read_fault a None;
  (match !report with
  | Some r ->
    check bool "victims released" true (r.Purity_core.Gc.victims <> []);
    check int "superseded cblock not copied" 0 r.Purity_core.Gc.relocated_cblocks
  | None -> Alcotest.fail "gc never completed");
  check bool "read returns the overwrite" true
    (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = fresh);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "overwrite survives crash + failover" true
    (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = fresh)

(* A write landing while GC or a drive rebuild relocates may find its
   twin through inline dedup in a victim. Evacuating segments are no
   dedup source: otherwise the fresh mapping would point into a segment
   the pass then releases. *)
let test_no_dedup_into_victim () =
  let case pass =
    let clock, a = make_array () in
    ok (Fa.create_volume a "v" ~blocks:1024);
    let d = random_data 64 in
    write_ok clock a ~volume:"v" ~block:0 d;
    for _ = 1 to 6 do
      write_ok clock a ~volume:"v" ~block:128 (random_data 128)
    done;
    ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
    let acked = ref false and reads_issued = ref 0 in
    Fa.set_read_fault a
      (Some
         (fun ~drive:_ ->
           incr reads_issued;
           if !reads_issued = 1 then
             Clock.schedule clock ~delay:0.0 (fun () ->
                 Fa.write a ~volume:"v" ~block:512 d (fun r ->
                     ok r;
                     acked := true));
           false));
    check bool "victims emptied" true (await clock (pass a));
    Fa.set_read_fault a None;
    check bool "duplicate acked" true !acked;
    (* churn until the victims' AUs are reused *)
    for _ = 1 to 40 do
      write_ok clock a ~volume:"v" ~block:128 (random_data 128)
    done;
    ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
    ignore (await clock (Fa.gc ~min_dead_ratio:0.2 ~max_victims:64 a));
    check bool "duplicate reads back" true
      (read_ok clock a ~volume:"v" ~block:512 ~nblocks:64 = d);
    Fa.crash a;
    ignore (await clock (fun k -> Fa.failover a k));
    check bool "duplicate survives crash + failover" true
      (read_ok clock a ~volume:"v" ~block:512 ~nblocks:64 = d)
  in
  case (fun a k ->
      Fa.gc ~min_dead_ratio:0.6 ~max_victims:64 a (fun r -> k (r.Purity_core.Gc.victims <> [])));
  (* rebuild a drive holding block 0's segment *)
  case (fun a k ->
      let seg =
        Hashtbl.find (Fa.state a).Purity_core.State.segment_metas
          (block_segment a ~volume:"v" ~block:0)
      in
      Fa.rebuild_drive a seg.members.(0).drive (fun n -> k (n > 0)))

(* ---------- scrub ---------- *)

let test_scrub_clean_array () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  write_ok clock a ~volume:"v" ~block:0 (random_data 128);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let r = await clock (fun k -> Fa.scrub a (fun r -> k r)) in
  check bool "segments checked" true (r.Purity_core.Scrub.segments_checked > 0);
  check int "no corruption on fresh flash" 0 r.Purity_core.Scrub.corrupt_members

let test_scrub_repairs_worn_flash () =
  let config =
    {
      test_config with
      Fa.drive_config =
        { test_config.Fa.drive_config with Purity_ssd.Drive.retention_mean_us = 5e8 };
    }
  in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "v" ~blocks:512);
  let data = random_data 256 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  (* wear the flash to its rating, then age it enough that a noticeable
     fraction of pages leak but rows remain reconstructable *)
  Array.iter
    (fun d -> Purity_ssd.Drive.wear_to d ~pe:3000)
    (Purity_ssd.Shelf.drives (Fa.shelf a));
  Clock.advance clock 3e7;
  let r = await clock (fun k -> Fa.scrub a (fun r -> k r)) in
  check bool "scrub found corruption" true (r.Purity_core.Scrub.corrupt_members > 0);
  check bool "scrub relocated" true (r.Purity_core.Scrub.segments_relocated > 0);
  (* the data survives because scrub rewrote it before total loss *)
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:256 in
  check bool "data repaired" true (got = data)

(* ---------- data reduction stats ---------- *)

let test_data_reduction_ratio_vdi_like () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "gold" ~blocks:256);
  write_ok clock a ~volume:"gold" ~block:0 (textish 256);
  ok (Fa.snapshot a ~volume:"gold" ~snap:"gold@1");
  for i = 1 to 8 do
    ok (Fa.clone a ~snapshot:"gold@1" ~volume:(Printf.sprintf "vm%d" i))
  done;
  (* clones share everything: provisioned virtual space is ~9x physical *)
  let s = Fa.stats a in
  check bool "provisioning ratio" true
    (s.Fa.provisioned_virtual_bytes > 5 * s.Fa.live_logical_bytes)

(* ---------- read cache & secondary warming (paper 4.3) ---------- *)

let test_cache_hits_speed_up_rereads () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let d = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  (* first read fills the cache, second hits it *)
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64);
  let t0 = Clock.now clock in
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  let hit_latency = Clock.now clock -. t0 in
  check bool "cached read correct" true (got = d);
  let s = Fa.stats a in
  check bool "cache hits recorded" true (s.Fa.cache_hits > 0);
  check bool (Printf.sprintf "hit is DRAM speed (%.1f us)" hit_latency) true
    (hit_latency < 50.0)

(* Kernel counters are always on: a read's decode shows as a CRC call. *)
module Ks = Purity_util.Kernel_stats

let decodes () = (Ks.lz_decompress.calls, Ks.crc.calls)

let test_cache_disabled () =
  let clock, a = make_array ~config:{ test_config with Fa.read_cache_entries = 0 } () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let d = random_data 16 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let _, crc0 = decodes () in
  let first = read_ok clock a ~volume:"v" ~block:0 ~nblocks:16 in
  let _, crc1 = decodes () in
  let second = read_ok clock a ~volume:"v" ~block:0 ~nblocks:16 in
  let _, crc2 = decodes () in
  check int "no hits when disabled" 0 (Fa.stats a).Fa.cache_hits;
  check bool "reads agree" true (first = d && second = d);
  check bool "each read decodes" true (crc1 > crc0 && crc2 - crc1 = crc1 - crc0)

let test_cache_serves_fresh_data_after_overwrite () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (random_data 16);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:16);
  (* overwrite: new facts point at a new cblock, so the stale cache entry
     is unreachable *)
  let fresh = random_data 16 in
  write_ok clock a ~volume:"v" ~block:0 fresh;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:16 in
  check bool "overwrite wins over cache" true (got = fresh)

let test_secondary_warming_preserves_hits () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:512);
  let d = random_data 256 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  (* warm the working set *)
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:256);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  let t0 = Clock.now clock in
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:256 in
  let warm_latency = Clock.now clock -. t0 in
  check bool "data intact" true (got = d);
  let s = Fa.stats a in
  check bool "spare took over warm" true (s.Fa.cache_hits > 0);
  check bool (Printf.sprintf "warm post-failover read fast (%.1f us)" warm_latency) true
    (warm_latency < 100.0)

let test_cold_failover_without_warming () =
  let clock, a =
    make_array ~config:{ test_config with Fa.secondary_warming = false } ()
  in
  ok (Fa.create_volume a "v" ~blocks:512);
  write_ok clock a ~volume:"v" ~block:0 (random_data 256);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:256);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:256);
  let s = Fa.stats a in
  check int "cold spare misses" 0 s.Fa.cache_hits

(* A cblock is decoded once while it sits in controller DRAM: the read
   cache and an unflushed segio's memo hold decoded data, so a repeat
   read runs no CRC and no decompress. *)
let test_cache_hit_skips_decode () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let d = textish 64 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let lz0, _ = decodes () in
  check bool "first read correct" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = d);
  let lz1, crc1 = decodes () in
  check bool "miss decompresses" true (lz1 > lz0);
  let hits = (Fa.stats a).Fa.cache_hits in
  check bool "hit correct" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = d);
  check int "one more hit" (hits + 1) (Fa.stats a).Fa.cache_hits;
  check (Alcotest.pair int int) "hit runs no decompress and no CRC" (lz1, crc1) (decodes ())

let test_segio_read_decodes_once () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:512);
  let d = textish 64 in
  write_ok clock a ~volume:"v" ~block:0 d;
  let seg = block_segment a ~volume:"v" ~block:0 in
  check bool "still in the open segio" true
    (Hashtbl.mem (Fa.state a).Purity_core.State.unflushed seg);
  let lz0, _ = decodes () in
  check bool "segio read correct" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = d);
  check bool "segio reread correct" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = d);
  check int "one decompress for two reads" (lz0 + 1) (fst (decodes ()));
  (* overwritten churn leaves block 0's segment mostly dead *)
  for _ = 1 to 6 do
    write_ok clock a ~volume:"v" ~block:128 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let r = await clock (Fa.gc ~min_dead_ratio:0.6 ~max_victims:64 a) in
  check bool "segment collected" true (List.mem seg r.Purity_core.Gc.victims);
  check bool "block relocated" true (block_segment a ~volume:"v" ~block:0 <> seg);
  check bool "read after GC correct" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = d)

(* The map cache packs (medium, block) into one int; a block past its
   2^40 range is looked up without it. Blocks past 2^32 and past 2^40
   of a thin volume read back what was written, also after an
   overwrite that lands on a cached mapping. *)
let test_huge_thin_volume () =
  let clock, a = make_array () in
  let blocks = 1 lsl 41 in
  ok (Fa.create_volume a "v" ~blocks);
  List.iter
    (fun block ->
      let fill c = String.make (2 * bs) c in
      write_ok clock a ~volume:"v" ~block (fill 'a');
      check bool "written" true (read_ok clock a ~volume:"v" ~block ~nblocks:2 = fill 'a');
      write_ok clock a ~volume:"v" ~block (fill 'b');
      check bool "overwritten" true (read_ok clock a ~volume:"v" ~block ~nblocks:2 = fill 'b');
      check bool "neighbour thin" true
        (read_ok clock a ~volume:"v" ~block:(block + 2) ~nblocks:1 = String.make bs '\000'))
    [ (1 lsl 32) + 5; (1 lsl 40) + 7; blocks - 3 ]

(* ---------- 4.6: inferred transfer sizes ---------- *)

let test_inference_tracks_write_size () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:4096);
  check (Alcotest.option int) "default before evidence" (Some 64)
    (Fa.inferred_io_blocks a "db");
  (* an 8 KiB-page database *)
  for i = 0 to 39 do
    write_ok clock a ~volume:"db" ~block:(i * 16) (random_data 16)
  done;
  check (Alcotest.option int) "inferred 16-block pages" (Some 16)
    (Fa.inferred_io_blocks a "db")

let test_inference_sizes_cblocks_for_single_fetch_reads () =
  let config = { test_config with Fa.read_cache_entries = 0 } in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "db" ~blocks:4096);
  (* train the observer, then write the block we will measure *)
  for i = 0 to 39 do
    write_ok clock a ~volume:"db" ~block:(i * 16) (random_data 16)
  done;
  write_ok clock a ~volume:"db" ~block:2048 (random_data 16);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let st = Fa.state a in
  let before = (Purity_sched.Io.stats st.Purity_core.State.io).Purity_sched.Io.chunk_reads in
  ignore (read_ok clock a ~volume:"db" ~block:2048 ~nblocks:16);
  let after = (Purity_sched.Io.stats st.Purity_core.State.io).Purity_sched.Io.chunk_reads in
  (* a page-sized read retrieves a single page-sized cblock (at most two
     write-unit chunks when the frame straddles a boundary) — not the
     4+ chunks a 32 KiB cblock would cost *)
  check bool (Printf.sprintf "page read cost %d chunks" (after - before)) true
    (after - before <= 2)

let test_inference_per_volume () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "small" ~blocks:4096);
  ok (Fa.create_volume a "large" ~blocks:4096);
  for i = 0 to 19 do
    write_ok clock a ~volume:"small" ~block:(i * 8) (random_data 8);
    write_ok clock a ~volume:"large" ~block:(i * 64) (random_data 64)
  done;
  check (Alcotest.option int) "small volume" (Some 8) (Fa.inferred_io_blocks a "small");
  check (Alcotest.option int) "large volume" (Some 64) (Fa.inferred_io_blocks a "large")

let test_gc_segregates_shared_cblocks () =
  (* two volumes holding the same image (deduped) plus unique churn; GC
     must report the multiply-referenced cblocks it segregates *)
  let clock, a = make_array () in
  ok (Fa.create_volume a "a" ~blocks:512);
  ok (Fa.create_volume a "b" ~blocks:512);
  let image = random_data 128 in
  write_ok clock a ~volume:"a" ~block:0 image;
  write_ok clock a ~volume:"b" ~block:0 image;
  (* unique churn to create dead space *)
  for _ = 1 to 3 do
    write_ok clock a ~volume:"a" ~block:256 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let r = await clock (fun k -> Fa.gc ~min_dead_ratio:0.05 ~max_victims:64 a (fun x -> k x)) in
  check bool "shared cblocks recognised" true (r.Purity_core.Gc.shared_cblocks > 0);
  (* both volumes still read the image *)
  check bool "a intact" true (read_ok clock a ~volume:"a" ~block:0 ~nblocks:128 = image);
  check bool "b intact" true (read_ok clock a ~volume:"b" ~block:0 ~nblocks:128 = image)

(* ---------- p95 hedged reads (4.4) ---------- *)

let test_p95_backup_reads () =
  let config = { test_config with Fa.p95_backup = true; read_cache_entries = 0 } in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "v" ~blocks:2048);
  write_ok clock a ~volume:"v" ~block:0 (random_data 1024);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  (* train the p95 estimator with plenty of reads, then keep reading while
     a flush keeps drives slow; backup reconstructions may fire *)
  for i = 0 to 127 do
    ignore (read_ok clock a ~volume:"v" ~block:(i * 8) ~nblocks:8)
  done;
  (* a concurrent write makes some direct reads slow *)
  let done_w = ref false in
  Fa.write a ~volume:"v" ~block:1024 (random_data 512) (fun _ -> done_w := true);
  for i = 0 to 63 do
    ignore (read_ok clock a ~volume:"v" ~block:(i * 8) ~nblocks:8)
  done;
  Clock.run clock;
  check bool "write completed" true !done_w;
  let io = Purity_sched.Io.stats (Fa.state a).Purity_core.State.io in
  (* the hedge must never lose data and is allowed to fire *)
  check bool "reads all served" true (io.Purity_sched.Io.failures = 0);
  check bool "hedge plumbing alive" true (io.Purity_sched.Io.backup_reads >= 0)

(* ---------- whole-array consistency property ---------- *)

(* The NVRAM admission check sizes a write intent without building it. *)
let prop_intent_length =
  QCheck.Test.make ~name:"intent length matches its encoding" ~count:300
    QCheck.(triple (int_bound (1 lsl 30)) (int_bound (1 lsl 40)) (int_bound 70_000))
    (fun (medium, block, len) ->
      Purity_core.Write_path.intent_length ~medium ~block ~len
      = String.length
          (Purity_core.Write_path.encode_intent ~medium ~block (String.make len 'i')))

let prop_array_matches_model =
  (* random overlapping writes + reads against a naive byte-array model,
     with periodic flush/gc; every read must match the model exactly *)
  QCheck.Test.make ~name:"array agrees with naive model (no faults)" ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let clock, a = make_array () in
      (match Fa.create_volume a "v" ~blocks:1024 with Ok () -> () | Error _ -> assert false);
      Rng.with_seed_report ~seed:(Int64.of_int (seed + 77)) @@ fun rng ->
      let model = Bytes.make (1024 * bs) '\000' in
      let okay = ref true in
      for step = 1 to 60 do
        let block = Rng.int rng 960 in
        let nblocks = 1 + Rng.int rng 64 in
        if Rng.int rng 100 < 55 then begin
          let data = Bytes.to_string (Rng.bytes rng (nblocks * bs)) in
          match await clock (Fa.write a ~volume:"v" ~block data) with
          | Ok () -> Bytes.blit_string data 0 model (block * bs) (String.length data)
          | Error `Backpressure -> ()
          | Error _ -> okay := false
        end
        else begin
          match await clock (Fa.read a ~volume:"v" ~block ~nblocks) with
          | Ok got ->
            if got <> Bytes.sub_string model (block * bs) (nblocks * bs) then okay := false
          | Error _ -> okay := false
        end;
        if step mod 20 = 0 then
          ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.3 ~max_victims:8 a (fun r -> k r)))
      done;
      !okay)

(* ---------- protection policies (automatic snapshots) ---------- *)

module Protection = Purity_core.Protection

let test_protection_cadence_and_retention () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:256);
  (* note: a protection policy reschedules itself forever, so these tests
     drive the clock with run_until, never Clock.run *)
  write_ok clock a ~volume:"db" ~block:0 (random_data 8);
  let p = Protection.create a in
  (match Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 3 } with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "protect failed");
  Clock.run_until clock (Clock.now clock +. 7_500.0);
  (* 7 ticks, keep 3 *)
  check int "seven taken" 7 (Protection.taken p);
  let snaps = Protection.snapshots p ~volume:"db" in
  check (Alcotest.list Alcotest.string) "newest three retained"
    [ "db.auto-5"; "db.auto-6"; "db.auto-7" ] snaps;
  (* expired snapshots are gone; retained ones exist *)
  check bool "auto-1 expired" false (Fa.volume_exists a "db.auto-1");
  check bool "auto-7 exists" true (Fa.volume_exists a "db.auto-7");
  Protection.stop p

let test_protection_snapshot_content () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:64);
  let v1 = random_data 8 in
  write_ok clock a ~volume:"db" ~block:0 v1;
  let p = Protection.create a in
  ignore (Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 2 });
  Clock.run_until clock (Clock.now clock +. 1_500.0);
  (* overwrite after the first automatic snapshot *)
  let wrote = ref false in
  Fa.write a ~volume:"db" ~block:0 (random_data 8) (fun r -> wrote := r = Ok ());
  Clock.run_until clock (Clock.now clock +. 500.0);
  check bool "overwrite acked" true !wrote;
  let got = ref None in
  Fa.read a ~volume:"db.auto-1" ~block:0 ~nblocks:8 (fun r -> got := Some r);
  Clock.run_until clock (Clock.now clock +. 500.0);
  (match !got with
  | Some (Ok data) -> check bool "auto snapshot froze v1" true (data = v1)
  | _ -> Alcotest.fail "snapshot read failed");
  Protection.stop p

let test_protection_unprotect_stops () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:64);
  let p = Protection.create a in
  ignore (Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 2 });
  Clock.run_until clock (Clock.now clock +. 2_500.0);
  let before = Protection.taken p in
  Protection.unprotect p ~volume:"db";
  Clock.run_until clock (Clock.now clock +. 10_000.0);
  check int "no more snapshots" before (Protection.taken p)

let test_protection_errors () =
  let _clock, a = make_array () in
  let p = Protection.create a in
  (match Protection.protect p ~volume:"ghost" { Protection.every_us = 1000.0; keep = 1 } with
  | Error `No_such_volume -> ()
  | _ -> Alcotest.fail "missing volume accepted");
  ok (Fa.create_volume a "db" ~blocks:64);
  ignore (Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 1 });
  match Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 1 } with
  | Error `Already -> Protection.stop p
  | _ -> Alcotest.fail "double protect accepted"

let () =
  Alcotest.run "core"
    [
      ( "volumes",
        [
          Alcotest.test_case "lifecycle" `Quick test_volume_lifecycle;
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_blocks_read_zero;
          Alcotest.test_case "overwrite" `Quick test_overwrite_latest_wins;
          Alcotest.test_case "partial overwrite" `Quick test_partial_overwrite;
          Alcotest.test_case "large write" `Quick test_large_write_spans_segments;
          Alcotest.test_case "error surface" `Quick test_write_errors;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "read only" `Quick test_snapshot_read_only;
          Alcotest.test_case "clone diverges" `Quick test_clone_shares_then_diverges;
          Alcotest.test_case "snapshot chain" `Quick test_many_snapshots_chain;
          Alcotest.test_case "delete snapshot" `Quick test_delete_snapshot_keeps_volume;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "compression" `Quick test_compression_reduces_stored_bytes;
          Alcotest.test_case "dedup" `Quick test_dedup_absorbs_identical_writes;
          Alcotest.test_case "dedup disabled" `Quick test_dedup_disabled_config;
          Alcotest.test_case "vdi provisioning" `Quick test_data_reduction_ratio_vdi_like;
        ] );
      ( "faults",
        [
          Alcotest.test_case "two drive failures" `Quick test_reads_through_two_drive_failures;
          Alcotest.test_case "write with pulled drive" `Quick test_writes_continue_after_drive_pull;
          Alcotest.test_case "rebuild drive" `Quick test_rebuild_drive;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "acked writes survive" `Quick test_failover_preserves_acked_writes;
          Alcotest.test_case "after checkpoint" `Quick test_failover_after_checkpoint;
          Alcotest.test_case "snapshots survive" `Quick test_failover_preserves_snapshots_and_volumes;
          Alcotest.test_case "double failover" `Quick test_double_failover;
          Alcotest.test_case "corrupt boot region" `Quick
            test_corrupt_boot_region_falls_back_to_full_scan;
          Alcotest.test_case "frontier faster than full" `Quick
            test_frontier_recovery_faster_than_full;
          Alcotest.test_case "availability accounting" `Quick test_availability_accounting;
          Alcotest.test_case "deleted volume, crash before flush" `Quick
            test_deleted_volume_survives_crash_nvram;
          Alcotest.test_case "deleted volume, crash after trim" `Quick
            test_deleted_volume_survives_crash_log;
          Alcotest.test_case "idle NVRAM flat across failovers" `Quick
            test_idle_nvram_flat_across_failovers;
          Alcotest.test_case "seal by a record's append keeps its stash" `Quick
            test_seal_by_record_append_keeps_stash;
          Alcotest.test_case "namespace op refused when NVRAM is full" `Quick
            test_namespace_op_refused_when_nvram_full;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reclaims overwrites" `Quick test_gc_reclaims_overwritten_space;
          Alcotest.test_case "preserves data" `Quick test_gc_preserves_data;
          Alcotest.test_case "delete volume reclaim" `Quick test_delete_volume_then_gc_reclaims;
          Alcotest.test_case "after failover" `Quick test_gc_after_failover;
          Alcotest.test_case "segregates shared cblocks" `Quick test_gc_segregates_shared_cblocks;
          Alcotest.test_case "keeps overwrite during relocation" `Quick
            test_gc_keeps_overwrite_during_relocation;
          Alcotest.test_case "no dedup into a victim" `Quick test_no_dedup_into_victim;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean array" `Quick test_scrub_clean_array;
          Alcotest.test_case "repairs worn flash" `Quick test_scrub_repairs_worn_flash;
        ] );
      ( "sched",
        [ Alcotest.test_case "p95 hedged reads" `Quick test_p95_backup_reads ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_array_matches_model;
          QCheck_alcotest.to_alcotest prop_intent_length;
        ] );
      ( "protection",
        [
          Alcotest.test_case "cadence and retention" `Quick test_protection_cadence_and_retention;
          Alcotest.test_case "snapshot content" `Quick test_protection_snapshot_content;
          Alcotest.test_case "unprotect stops" `Quick test_protection_unprotect_stops;
          Alcotest.test_case "errors" `Quick test_protection_errors;
        ] );
      ( "inference",
        [
          Alcotest.test_case "tracks write size" `Quick test_inference_tracks_write_size;
          Alcotest.test_case "single-fetch reads" `Quick
            test_inference_sizes_cblocks_for_single_fetch_reads;
          Alcotest.test_case "per volume" `Quick test_inference_per_volume;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits speed up rereads" `Quick test_cache_hits_speed_up_rereads;
          Alcotest.test_case "disabled" `Quick test_cache_disabled;
          Alcotest.test_case "overwrite wins" `Quick test_cache_serves_fresh_data_after_overwrite;
          Alcotest.test_case "secondary warming" `Quick test_secondary_warming_preserves_hits;
          Alcotest.test_case "cold without warming" `Quick test_cold_failover_without_warming;
          Alcotest.test_case "hit skips decode" `Quick test_cache_hit_skips_decode;
          Alcotest.test_case "segio read decodes once" `Quick test_segio_read_decodes_once;
          Alcotest.test_case "huge thin volume" `Quick test_huge_thin_volume;
        ] );
    ]
