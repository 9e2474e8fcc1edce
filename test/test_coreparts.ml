(* Unit tests for the small core-support modules: key encodings, block
   references, the boot region, and the metadata-record codec. *)

module Clock = Purity_sim.Clock
module Keys = Purity_core.Keys
module Blockref = Purity_core.Blockref
module Boot = Purity_core.Boot_region
module State = Purity_core.State
module Fact = Purity_pyramid.Fact

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- Keys ---------- *)

let test_block_key_roundtrip () =
  let k = Keys.block_key ~medium:42 ~block:99999 in
  check int "key width" 16 (String.length k);
  check int "medium" 42 (Keys.block_key_medium k);
  check int "block" 99999 (Keys.block_key_block k)

let test_block_key_ordering () =
  (* byte order must equal (medium, block) order for range scans *)
  let pairs = [ (1, 5); (1, 6); (1, 100000); (2, 0); (2, 7); (300, 1) ] in
  let keys = List.map (fun (m, b) -> Keys.block_key ~medium:m ~block:b) pairs in
  let sorted = List.sort compare keys in
  check bool "lexicographic = numeric" true (keys = sorted)

let test_medium_segment_keys () =
  check int "medium id" 77 (Keys.medium_key_id (Keys.medium_key 77));
  check int "segment id" 123456 (Keys.segment_key_id (Keys.segment_key 123456))

let prop_block_key_injective =
  QCheck.Test.make ~name:"block keys are injective" ~count:200
    QCheck.(pair (pair (int_bound 10000) (int_bound 100000)) (pair (int_bound 10000) (int_bound 100000)))
    (fun ((m1, b1), (m2, b2)) ->
      let k1 = Keys.block_key ~medium:m1 ~block:b1 in
      let k2 = Keys.block_key ~medium:m2 ~block:b2 in
      (k1 = k2) = (m1 = m2 && b1 = b2))

(* ---------- Blockref ---------- *)

let test_blockref_roundtrip () =
  let r = { Blockref.segment = 9001; off = 123456; stored_len = 8201; index = 63 } in
  let r2 = Blockref.decode (Blockref.encode r) in
  check bool "roundtrip" true (r = r2)

let test_blockref_same_cblock () =
  let a = { Blockref.segment = 5; off = 100; stored_len = 900; index = 0 } in
  let b = { a with Blockref.index = 7 } in
  let c = { a with Blockref.off = 200 } in
  check bool "same cblock ignores index" true (Blockref.same_cblock a b);
  check bool "different offset differs" false (Blockref.same_cblock a c)

let prop_blockref_roundtrip =
  QCheck.Test.make ~name:"blockref roundtrip" ~count:200
    QCheck.(quad (int_bound 100000) (int_bound 10_000_000) (int_bound 40000) (int_bound 64))
    (fun (segment, off, stored_len, index) ->
      let r = { Blockref.segment; off; stored_len; index } in
      Blockref.decode (Blockref.encode r) = r)

(* ---------- Boot region ---------- *)

let test_boot_empty_reads_none () =
  let clock = Clock.create () in
  let b = Boot.create ~clock () in
  let got = ref (Some "sentinel") in
  Boot.read b (fun r -> got := r);
  Clock.run clock;
  check bool "factory fresh" true (!got = None)

let test_boot_write_then_read () =
  let clock = Clock.create () in
  let b = Boot.create ~clock () in
  Boot.write b "blob-1" (fun () -> ());
  Boot.write b "blob-2" (fun () -> ());
  let got = ref None in
  Boot.read b (fun r -> got := r);
  Clock.run clock;
  check (Alcotest.option Alcotest.string) "latest blob wins" (Some "blob-2") !got;
  check int "write count" 2 (Boot.writes b)

let test_boot_latency_charged () =
  let clock = Clock.create () in
  let b = Boot.create ~write_us:600.0 ~clock () in
  let done_at = ref 0.0 in
  Boot.write b "x" (fun () -> done_at := Clock.now clock);
  Clock.run clock;
  check bool "write took simulated time" true (!done_at >= 600.0)

(* ---------- metadata records ---------- *)

(* The on-media bytes, built by hand: a format change must fail here,
   not only round-trip through the new codec. *)
let test_record_bytes () =
  let fact = Fact.make ~key:"ab" ~value:"xyz" ~seq:300L in
  (* seq 300 = varint ac 02; key len 2; "ab"; value present; len 3; "xyz" *)
  let fact_bytes = "\xac\x02\x02ab\x01\x03xyz" in
  let tomb_bytes = "\x05\x01k\x00" in
  let elide_body = "\xac\x02\x07\x09" in
  let cases =
    [
      (false, 'M', State.Put fact, "M" ^ fact_bytes);
      (true, 'V', State.Put fact, "FV" ^ fact_bytes);
      (false, 'S', State.Put (Fact.tombstone ~key:"k" ~seq:5L), "S" ^ tomb_bytes);
      (true, 'S', State.Put (Fact.tombstone ~key:"k" ~seq:5L), "FS" ^ tomb_bytes);
      (false, 'B', State.Elide { seq = 300L; lo = 7; hi = 9 }, "eB" ^ elide_body);
      (true, 'M', State.Elide { seq = 300L; lo = 7; hi = 9 }, "EM" ^ elide_body);
    ]
  in
  List.iter
    (fun (stash, tag, change, bytes) ->
      check Alcotest.string "encoded bytes" bytes (State.encode_change ~stash tag change);
      check bool "bytes decode back" true
        (State.decode_change ~stash bytes = Some (tag, change)))
    cases

let test_record_rejects () =
  let fact = Fact.make ~key:"ab" ~value:"xyz" ~seq:300L in
  let log = State.encode_change ~stash:false 'B' (State.Put fact) in
  let stash = State.encode_change ~stash:true 'M' (State.Put fact) in
  let none ~stash s = State.decode_change ~stash s = None in
  check bool "empty" true (none ~stash:false "" && none ~stash:true "");
  check bool "trailing byte" true (none ~stash:false (log ^ "x") && none ~stash:true (stash ^ "x"));
  check bool "log record is no stash" true (none ~stash:true log);
  check bool "write intent is no stash" true (none ~stash:true "W\x01\x02\x01z")

let gen_change =
  QCheck.Gen.(
    let nat = int_bound 1_000_000_000 in
    let seq = map Int64.of_int nat in
    oneof
      [
        map3
          (fun key value seq -> State.Put { Fact.key; value; seq })
          (string_size (0 -- 40)) (opt (string_size (0 -- 200))) seq;
        map3 (fun seq lo n -> State.Elide { seq; lo; hi = lo + n }) seq nat (int_bound 1000);
      ])

let arb_record =
  QCheck.make
    ~print:(fun (stash, tag, change) ->
      Printf.sprintf "stash=%b %S" stash (State.encode_change ~stash tag change))
    QCheck.Gen.(triple bool (oneofl [ 'B'; 'M'; 'S'; 'V' ]) gen_change)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record codec roundtrip, both copies" ~count:500 arb_record
    (fun (stash, tag, change) ->
      State.decode_change ~stash (State.encode_change ~stash tag change) = Some (tag, change))

let prop_record_prefixes =
  QCheck.Test.make ~name:"every strict prefix of a record decodes to None" ~count:300
    arb_record (fun (stash, tag, change) ->
      let s = State.encode_change ~stash tag change in
      List.for_all
        (fun n -> State.decode_change ~stash (String.sub s 0 n) = None)
        (List.init (String.length s) Fun.id))

let () =
  Alcotest.run "core-parts"
    [
      ( "keys",
        [
          Alcotest.test_case "block key roundtrip" `Quick test_block_key_roundtrip;
          Alcotest.test_case "ordering" `Quick test_block_key_ordering;
          Alcotest.test_case "medium/segment" `Quick test_medium_segment_keys;
          QCheck_alcotest.to_alcotest prop_block_key_injective;
        ] );
      ( "blockref",
        [
          Alcotest.test_case "roundtrip" `Quick test_blockref_roundtrip;
          Alcotest.test_case "same cblock" `Quick test_blockref_same_cblock;
          QCheck_alcotest.to_alcotest prop_blockref_roundtrip;
        ] );
      ( "boot_region",
        [
          Alcotest.test_case "empty" `Quick test_boot_empty_reads_none;
          Alcotest.test_case "write then read" `Quick test_boot_write_then_read;
          Alcotest.test_case "latency" `Quick test_boot_latency_charged;
        ] );
      ( "metadata_records",
        [
          Alcotest.test_case "pinned bytes" `Quick test_record_bytes;
          Alcotest.test_case "rejects non-records" `Quick test_record_rejects;
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
          QCheck_alcotest.to_alcotest prop_record_prefixes;
        ] );
    ]
