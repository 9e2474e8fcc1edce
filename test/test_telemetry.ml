(* purity.telemetry: registry, spans, phone-home exporter. *)

module Clock = Purity_sim.Clock
module Histogram = Purity_util.Histogram
module Registry = Purity_telemetry.Registry
module Span = Purity_telemetry.Span
module Export = Purity_telemetry.Export
module Json = Purity_telemetry.Json

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ---------- registry ---------- *)

let test_registry_counters () =
  let reg = Registry.create () in
  let c = Registry.counter reg "write_path/app_writes" in
  Registry.incr c;
  Registry.add c 4;
  check int "counter value" 5 (Registry.value c);
  (* same key, same family: the original handle comes back *)
  let c' = Registry.counter reg "write_path/app_writes" in
  Registry.incr c';
  check int "shared cell" 6 (Registry.value c)

let test_registry_gauges () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "nvram/fill" in
  Registry.set g 0.75;
  check (Alcotest.float 1e-9) "gauge value" 0.75 (Registry.get g)

let test_registry_duplicate_family_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x/key");
  (match Registry.gauge reg "x/key" with
  | _ -> Alcotest.fail "family mismatch must raise"
  | exception Invalid_argument _ -> ());
  match Registry.histogram reg "x/key" with
  | _ -> Alcotest.fail "family mismatch must raise"
  | exception Invalid_argument _ -> ()

let test_registry_keys_and_mem () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "b/two");
  ignore (Registry.counter reg "a/one");
  Registry.derive_int reg "c/three" (fun () -> 3);
  check bool "mem" true (Registry.mem reg "a/one");
  check bool "not mem" false (Registry.mem reg "nope");
  check (Alcotest.list string) "sorted keys" [ "a/one"; "b/two"; "c/three" ]
    (Registry.keys reg)

let test_registry_derived () =
  let reg = Registry.create () in
  let v = ref 10 in
  Registry.derive_int reg "derived/x" (fun () -> !v);
  let snap1 = Registry.snapshot reg in
  v := 25;
  let snap2 = Registry.snapshot reg in
  (match (Registry.find snap1 "derived/x", Registry.find snap2 "derived/x") with
  | Some (Registry.Int 10), Some (Registry.Int 25) -> ()
  | _ -> Alcotest.fail "derived metric must sample at snapshot time");
  (* re-registration replaces the closure *)
  Registry.derive_int reg "derived/x" (fun () -> 99);
  match Registry.find (Registry.snapshot reg) "derived/x" with
  | Some (Registry.Int 99) -> ()
  | _ -> Alcotest.fail "re-derivation must replace"

let test_snapshot_diff () =
  let reg = Registry.create () in
  let c = Registry.counter reg "ops/total" in
  let g = Registry.gauge reg "fill/level" in
  let h = Registry.histogram reg "lat/us" in
  Registry.add c 10;
  Registry.set g 1.0;
  Histogram.record h 100.0;
  Histogram.record h 200.0;
  let base = Registry.snapshot reg in
  Registry.add c 7;
  Registry.set g 2.5;
  Histogram.record h 400.0;
  let current = Registry.snapshot reg in
  let d = Registry.diff ~base ~current in
  (match Registry.find d "ops/total" with
  | Some (Registry.Int 7) -> ()
  | _ -> Alcotest.fail "counter diff must subtract");
  (match Registry.find d "fill/level" with
  | Some (Registry.Float f) -> check (Alcotest.float 1e-9) "gauge keeps level" 2.5 f
  | _ -> Alcotest.fail "gauge diff must keep current");
  match Registry.find d "lat/us" with
  | Some (Registry.Hist hs) ->
    check int "interval count" 1 hs.Registry.h_count;
    (* the one sample in the interval was 400us; its log-bucket upper
       bound is what the percentile reports *)
    check bool "interval p50 covers 400" true (hs.Registry.h_p50 >= 400.0)
  | _ -> Alcotest.fail "histogram diff must subtract buckets"

let test_filter_prefix () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "ssd/drive0/reads");
  ignore (Registry.counter reg "ssd/drive1/reads");
  ignore (Registry.counter reg "sched/reads");
  let snap = Registry.snapshot reg in
  check int "prefix matches subtree" 2
    (List.length (Registry.filter_prefix snap ~prefix:"ssd"));
  (* "ssd" must not match "sched" nor a key-prefix like "ssd/drive0" of
     "ssd/drive0/reads" unless on a segment boundary *)
  check int "deep prefix" 1 (List.length (Registry.filter_prefix snap ~prefix:"ssd/drive0"))

let test_reset () =
  let reg = Registry.create () in
  let c = Registry.counter reg "a/c" in
  let h = Registry.histogram reg "a/h" in
  Registry.add c 5;
  Histogram.record h 10.0;
  Registry.reset reg;
  check int "counter zeroed" 0 (Registry.value c);
  check int "histogram cleared" 0 (Histogram.count h)

(* ---------- histogram satellites ---------- *)

let test_histogram_to_buckets () =
  let h = Histogram.create () in
  Histogram.record h 3.0;
  Histogram.record h 3.0;
  Histogram.record h 1000.0;
  let buckets = Histogram.to_buckets h in
  check int "total count" 3 (List.fold_left (fun a (_, c) -> a + c) 0 buckets);
  check bool "bounds ascend" true
    (List.sort compare buckets = buckets && List.for_all (fun (_, c) -> c > 0) buckets)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h (float_of_int i)
  done;
  (match Histogram.quantiles h [ 0.5; 0.99 ] with
  | [ q50; q99 ] ->
    check (Alcotest.float 1e-9) "q50 = p50" (Histogram.percentile h 50.0) q50;
    check (Alcotest.float 1e-9) "q99 = p99" (Histogram.percentile h 99.0) q99
  | _ -> Alcotest.fail "two quantiles in, two out");
  match Histogram.quantiles h [ 1.5 ] with
  | _ -> Alcotest.fail "q > 1 must raise"
  | exception Invalid_argument _ -> ()

(* ---------- spans ---------- *)

let test_span_parentage () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~clock () in
  let parent = Span.start tr "write" in
  Clock.advance clock 5.0;
  let child = Span.start tr ~parent ~tags:[ ("seq", "1") ] "nvram_commit" in
  Clock.advance clock 7.0;
  Span.finish child;
  Span.finish parent;
  check (Alcotest.option int) "child links parent" (Some (Span.id parent))
    (Span.parent_id child);
  check (Alcotest.option int) "root has no parent" None (Span.parent_id parent);
  (match Span.duration_us child with
  | Some d -> check (Alcotest.float 1e-9) "child duration" 7.0 d
  | None -> Alcotest.fail "finished span has a duration");
  (match Span.duration_us parent with
  | Some d -> check (Alcotest.float 1e-9) "parent spans both hops" 12.0 d
  | None -> Alcotest.fail "finished span has a duration");
  (* ring holds both, oldest (first finished) first *)
  match Span.finished tr with
  | [ a; b ] ->
    check string "oldest first" "nvram_commit" (Span.name a);
    check string "then parent" "write" (Span.name b)
  | l -> Alcotest.failf "expected 2 finished spans, got %d" (List.length l)

let test_span_ring_eviction () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~capacity:4 ~clock () in
  for i = 1 to 10 do
    Span.finish (Span.start tr (Printf.sprintf "s%d" i))
  done;
  let names = List.map Span.name (Span.finished tr) in
  check (Alcotest.list string) "newest 4 survive, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ] names;
  check int "evictions counted" 6 (Span.dropped tr);
  check int "drain empties" 4 (List.length (Span.drain tr));
  check int "ring empty after drain" 0 (List.length (Span.finished tr))

let test_span_sink_and_double_finish () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~clock () in
  let seen = ref [] in
  Span.set_sink tr (Some (fun s -> seen := Span.name s :: !seen));
  let s = Span.start tr "once" in
  Span.finish s;
  Span.finish s;
  (* idempotent: no double entry in ring or sink *)
  check int "sink fired once" 1 (List.length !seen);
  check int "ring holds one" 1 (List.length (Span.finished tr))

(* ---------- exporter ---------- *)

(* A tiny structural validator: every line must parse as a single JSON
   object with the shared schema fields. We re-parse with a minimal
   checker rather than a full parser: balanced braces/strings plus
   required keys. *)
let line_is_object line =
  String.length line > 1
  && line.[0] = '{'
  && line.[String.length line - 1] = '}'
  (* no raw newline inside: one object per line *)
  && not (String.contains line '\n')

let test_exporter_jsonl () =
  let clock = Clock.create () in
  let reg = Registry.create () in
  let c = Registry.counter reg "ops/total" in
  let h = Registry.histogram reg "lat/us" in
  let tr = Span.create_tracer ~clock () in
  let buf = Buffer.create 256 in
  let ex =
    Export.create ~interval_us:1000.0 ~array_id:"arrayX" ~tracer:tr ~clock ~registry:reg
      ~sink:(Export.buffer_sink buf) ()
  in
  Registry.add c 3;
  Histogram.record h 42.0;
  Span.finish (Span.start tr "hop");
  Export.start ex;
  Clock.run_until clock 3500.0;
  Export.stop ex;
  Clock.run clock;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")
  in
  (* 3 ticks in 3500us at 1000us cadence + 1 span line *)
  check bool "several lines" true (List.length lines >= 3);
  check int "emitted counts lines" (List.length lines) (Export.emitted ex);
  List.iter
    (fun line ->
      check bool "one JSON object per line" true (line_is_object line);
      check bool "kind field" true
        (String.length line > 8 && String.sub line 0 8 = {|{"kind":|});
      check bool "array id present" true
        (let re = {|"array":"arrayX"|} in
         let rec find i =
           if i + String.length re > String.length line then false
           else String.sub line i (String.length re) = re || find (i + 1)
         in
         find 0))
    lines;
  check bool "a span line was emitted" true
    (List.exists
       (fun l -> String.length l > 16 && String.sub l 0 15 = {|{"kind":"span",|})
       lines)

let test_json_encoding () =
  check string "escaping"
    {|{"s":"a\"b\\c\nd","n":null,"inf":null,"t":true,"arr":[1,2.5]}|}
    (Json.to_string
       (Json.Obj
          [
            ("s", Json.Str "a\"b\\c\nd");
            ("n", Json.Null);
            ("inf", Json.Float infinity);
            ("t", Json.Bool true);
            ("arr", Json.Arr [ Json.Int 1; Json.Float 2.5 ]);
          ]))

(* ---------- the instrumented array ---------- *)

let await clock f =
  let r = ref None in
  f (fun x -> r := Some x);
  Clock.run clock;
  Option.get !r

let test_array_stats_match_registry () =
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data = String.init (64 * 512) (fun i -> Char.chr (i land 0xff)) in
  for i = 0 to 7 do
    match await clock (Fa.write a ~volume:"v" ~block:(i * 64) data) with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (match await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64) with
  | Ok got -> check string "roundtrip" data got
  | Error _ -> assert false);
  let s = Fa.stats a in
  let snap = Registry.snapshot (Fa.telemetry a) in
  let reg_int key =
    match Registry.find snap key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  check int "app_writes agree" s.Fa.app_writes (reg_int "write_path/app_writes");
  check int "logical bytes agree" s.Fa.logical_bytes_written
    (reg_int "write_path/logical_bytes");
  check int "stored bytes agree" s.Fa.stored_bytes_written
    (reg_int "write_path/stored_bytes");
  check int "app_reads derived" s.Fa.app_reads (reg_int "array/app_reads");
  check int "dedup agree" s.Fa.dedup_blocks (reg_int "dedup/inline_blocks");
  let reg_float key =
    match Registry.find snap key with
    | Some (Registry.Float f) -> f
    | _ -> Alcotest.failf "missing float metric %s" key
  in
  check (Alcotest.float 0.0) "data reduction agrees" s.Fa.data_reduction
    (reg_float "array/data_reduction");
  check (Alcotest.float 0.0) "availability agrees" s.Fa.availability
    (reg_float "array/availability");
  (* per-drive metrics exist for the whole shelf *)
  for d = 0 to 10 do
    check bool
      (Printf.sprintf "drive %d wear metric" d)
      true
      (Registry.mem (Fa.telemetry a) (Printf.sprintf "ssd/drive%d/wear_ratio" d))
  done;
  (* latency histograms flow into the registry *)
  (match Registry.find snap "write_path/latency_us" with
  | Some (Registry.Hist hs) -> check int "write samples" 8 hs.Registry.h_count
  | _ -> Alcotest.fail "write latency histogram missing");
  (* the multi-hop write trace is reconstructable: spans exist with
     correct parentage *)
  let spans = Span.finished (Fa.tracer a) in
  let by_name n = List.filter (fun s -> Span.name s = n) spans in
  check bool "write spans" true (List.length (by_name "write") >= 8);
  check bool "commit spans" true (List.length (by_name "nvram_commit") >= 8);
  let commit = List.hd (by_name "nvram_commit") in
  check bool "commit parented under a write" true
    (match Span.parent_id commit with
    | Some pid -> List.exists (fun s -> Span.id s = pid) (by_name "write")
    | None -> false)

let test_metadata_hotpath_counters () =
  (* smoke: after a mixed write/read workload with flushed patches, the
     metadata fast-path counters must all have moved — probes attempted,
     fences/blooms actually skipping work, and the mapping cache both
     missing (cold) and hitting (warm re-read) *)
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let cfg = { Fa.default_config with Fa.memtable_flush = 64 } in
  let a = Fa.create ~config:cfg ~clock () in
  (match Fa.create_volume a "v" ~blocks:8192 with Ok () -> () | Error _ -> assert false);
  let data = String.init (64 * 512) (fun i -> Char.chr (i land 0xff)) in
  for i = 0 to 7 do
    match await clock (Fa.write a ~volume:"v" ~block:(i * 64) data) with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (* cold read (cache misses), warm re-read (cache hits), and a thin
     never-written block far above the written range (fence skip) *)
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64));
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64));
  ignore (await clock (Fa.read a ~volume:"v" ~block:8000 ~nblocks:8));
  let snap = Registry.snapshot (Fa.telemetry a) in
  let reg_int key =
    match Registry.find snap key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  check bool "patch probes attempted" true (reg_int "pyramid/blocks_probes" > 0);
  check bool "fences/blooms skipped work" true
    (reg_int "pyramid/blocks_fence_skips" + reg_int "pyramid/blocks_bloom_skips" > 0);
  check bool "mapping cache missed cold" true (reg_int "read_path/map_cache_misses" > 0);
  check bool "mapping cache hit warm" true (reg_int "read_path/map_cache_hits" > 0);
  check bool "mapping cache populated" true (reg_int "read_path/map_cache_entries" > 0)

let test_kernel_counters () =
  (* smoke: a mixed write/read workload must move the data-plane kernel
     counters through the registry bridge — every stored byte is
     fingerprinted, compressed, CRC-framed and RS-encoded, and reads pull
     the same bytes back through CRC + decompress. *)
  let module Fa = Purity_core.Flash_array in
  Purity_util.Kernel_stats.reset ();
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data =
    String.init (64 * 512)
      (fun i -> Char.chr (if i land 7 = 0 then i land 0xff else 0x20))
  in
  for i = 0 to 3 do
    match await clock (Fa.write a ~volume:"v" ~block:(i * 64) data) with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (* sealing the open segio forces the RS parity path (gf + rs cells) *)
  ignore (await clock (fun k -> Fa.flush a k));
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64));
  let snap = Registry.snapshot (Fa.telemetry a) in
  let reg_int key =
    match Registry.find snap key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  List.iter
    (fun k ->
      check bool (k ^ " bytes moved") true (reg_int ("kernels/" ^ k ^ "_bytes") > 0);
      check bool (k ^ " calls moved") true (reg_int ("kernels/" ^ k ^ "_calls") > 0);
      (* ns only accumulates under an installed clock; here just present *)
      check bool (k ^ " ns exported") true (reg_int ("kernels/" ^ k ^ "_ns") >= 0))
    [ "crc"; "fingerprint"; "lz_compress"; "lz_decompress"; "gf"; "rs" ]

let test_failover_resets_registry () =
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data = String.make (64 * 512) 'x' in
  (match await clock (Fa.write a ~volume:"v" ~block:0 data) with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:1));
  let before = Fa.telemetry a in
  ignore (await clock (fun k -> Fa.failover a k));
  let after = Fa.telemetry a in
  check bool "fresh registry per controller" true (before != after);
  let snap = Registry.snapshot after in
  (match Registry.find snap "write_path/app_writes" with
  | Some (Registry.Int 0) -> ()
  | _ -> Alcotest.fail "path counters reset at failover");
  (* array-lifetime levels were re-derived over the new state *)
  match Registry.find snap "array/app_reads" with
  | Some (Registry.Int n) -> check int "app_reads persists" 1 n
  | _ -> Alcotest.fail "array metrics re-registered after failover"

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "gauges" `Quick test_registry_gauges;
          Alcotest.test_case "duplicate family clash" `Quick
            test_registry_duplicate_family_clash;
          Alcotest.test_case "keys and mem" `Quick test_registry_keys_and_mem;
          Alcotest.test_case "derived metrics" `Quick test_registry_derived;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "filter prefix" `Quick test_filter_prefix;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "to_buckets" `Quick test_histogram_to_buckets;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
        ] );
      ( "span",
        [
          Alcotest.test_case "parentage" `Quick test_span_parentage;
          Alcotest.test_case "ring eviction" `Quick test_span_ring_eviction;
          Alcotest.test_case "sink + idempotent finish" `Quick
            test_span_sink_and_double_finish;
        ] );
      ( "export",
        [
          Alcotest.test_case "JSONL schema" `Quick test_exporter_jsonl;
          Alcotest.test_case "JSON encoding" `Quick test_json_encoding;
        ] );
      ( "array",
        [
          Alcotest.test_case "stats match registry" `Quick
            test_array_stats_match_registry;
          Alcotest.test_case "metadata hot-path counters" `Quick
            test_metadata_hotpath_counters;
          Alcotest.test_case "kernel counters" `Quick test_kernel_counters;
          Alcotest.test_case "failover resets registry" `Quick
            test_failover_resets_registry;
        ] );
    ]
