module Fact = Purity_pyramid.Fact
module Patch = Purity_pyramid.Patch
module Pyramid = Purity_pyramid.Pyramid
module Seqno = Purity_pyramid.Seqno

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str_opt = Alcotest.option Alcotest.string

(* ---------- Seqno ---------- *)

let test_seqno_monotone () =
  let s = Seqno.create () in
  check Alcotest.int64 "first" 1L (Seqno.next s);
  check Alcotest.int64 "second" 2L (Seqno.next s);
  check Alcotest.int64 "current" 2L (Seqno.current s)

let test_seqno_batch () =
  let s = Seqno.create () in
  let lo, hi = Seqno.next_batch s 10 in
  check Alcotest.int64 "lo" 1L lo;
  check Alcotest.int64 "hi" 10L hi;
  check Alcotest.int64 "next after batch" 11L (Seqno.next s)

let test_seqno_restore () =
  let s = Seqno.create () in
  Seqno.restore_at_least s 500L;
  check Alcotest.int64 "restored" 501L (Seqno.next s);
  Seqno.restore_at_least s 10L;
  check Alcotest.int64 "never backwards" 502L (Seqno.next s)

(* ---------- Fact ---------- *)

let test_fact_encode_roundtrip () =
  let facts =
    [
      Fact.make ~key:"volume/7/block/42" ~value:"payload bytes" ~seq:99L;
      Fact.tombstone ~key:"k" ~seq:1L;
      Fact.make ~key:"" ~value:"" ~seq:Int64.max_int;
    ]
  in
  let buf = Buffer.create 64 in
  List.iter (Fact.encode buf) facts;
  let raw = Buffer.to_bytes buf in
  let rec decode_all pos acc =
    if pos >= Bytes.length raw then List.rev acc
    else begin
      let f, next = Fact.decode raw ~pos in
      decode_all next (f :: acc)
    end
  in
  let got = decode_all 0 [] in
  check int "count" 3 (List.length got);
  List.iter2 (fun a b -> check bool "fact equal" true (Fact.equal a b)) facts got

let test_fact_ordering () =
  let a = Fact.make ~key:"a" ~value:"1" ~seq:5L in
  let a_newer = Fact.make ~key:"a" ~value:"2" ~seq:9L in
  let b = Fact.make ~key:"b" ~value:"3" ~seq:1L in
  check bool "key order first" true (Fact.compare_key_seq a b < 0);
  check bool "newer seq first within key" true (Fact.compare_key_seq a_newer a < 0)

(* ---------- Patch ---------- *)

let mk key value seq = Fact.make ~key ~value ~seq

let test_patch_sorted_dedup () =
  let p = Patch.of_facts [ mk "b" "1" 2L; mk "a" "2" 1L; mk "b" "1" 2L; mk "a" "3" 5L ] in
  check int "dedup to 3" 3 (Patch.count p);
  match Patch.to_list p with
  | [ f1; f2; f3 ] ->
    check Alcotest.string "a newest first" "3" (Option.get f1.Fact.value);
    check Alcotest.string "a older" "2" (Option.get f2.Fact.value);
    check Alcotest.string "b" "1" (Option.get f3.Fact.value)
  | _ -> Alcotest.fail "wrong shape"

let test_patch_find () =
  let p = Patch.of_facts [ mk "k" "v1" 1L; mk "k" "v2" 2L; mk "z" "zz" 3L ] in
  (match Patch.find_latest p "k" with
  | Some f -> check Alcotest.string "latest wins" "v2" (Option.get f.Fact.value)
  | None -> Alcotest.fail "missing");
  check int "all versions" 2 (List.length (Patch.find p "k"));
  check int "absent" 0 (List.length (Patch.find p "nope"))

let test_patch_merge_idempotent () =
  let p = Patch.of_facts [ mk "a" "1" 1L; mk "b" "2" 2L ] in
  let q = Patch.of_facts [ mk "b" "2" 2L; mk "c" "3" 3L ] in
  let m1 = Patch.merge p q in
  let m2 = Patch.merge m1 m1 in
  check int "merge dedups" 3 (Patch.count m1);
  check int "self-merge is identity" 3 (Patch.count m2);
  let m_comm = Patch.merge q p in
  check bool "commutative" true
    (List.for_all2 Fact.equal (Patch.to_list m1) (Patch.to_list m_comm))

let test_patch_ranges () =
  let p = Patch.of_facts [ mk "a" "1" 5L; mk "m" "2" 3L; mk "z" "3" 9L ] in
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.int64)) "seq range"
    (Some (3L, 9L)) (Patch.seq_range p);
  check (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string)) "key range"
    (Some ("a", "z")) (Patch.key_range p);
  check int "range query" 2 (List.length (Patch.range p ~lo:"a" ~hi:"m"))

let test_patch_compact () =
  let p =
    Patch.of_facts
      [ mk "a" "old" 1L; mk "a" "new" 2L; Fact.tombstone ~key:"b" ~seq:3L; mk "b" "dead" 1L ]
  in
  let c = Patch.compact_latest p ~drop_tombstones:true in
  check int "one survivor" 1 (Patch.count c);
  check Alcotest.string "newest a" "new" (Option.get (Patch.get c 0).Fact.value);
  let c2 = Patch.compact_latest p ~drop_tombstones:false in
  check int "tombstone kept" 2 (Patch.count c2)

let test_patch_serialize_roundtrip () =
  let p = Patch.of_facts [ mk "alpha" "1" 1L; Fact.tombstone ~key:"beta" ~seq:2L ] in
  let p2 = Patch.deserialize (Patch.serialize p) in
  check bool "roundtrip" true (List.for_all2 Fact.equal (Patch.to_list p) (Patch.to_list p2))

let test_patch_serialize_corruption () =
  let p = Patch.of_facts [ mk "key" "value" 7L ] in
  let s = Bytes.of_string (Patch.serialize p) in
  Bytes.set_uint8 s (Bytes.length s - 1) (Bytes.get_uint8 s (Bytes.length s - 1) lxor 1);
  match Patch.deserialize (Bytes.to_string s) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "corruption undetected"

let prop_patch_merge_equals_union =
  QCheck.Test.make ~name:"patch merge = set union of facts" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) (pair (string_of_size Gen.(1 -- 4)) (int_bound 20)))
        (list_of_size Gen.(0 -- 30) (pair (string_of_size Gen.(1 -- 4)) (int_bound 20))))
    (fun (xs, ys) ->
      let facts l = List.map (fun (k, s) -> mk k (k ^ string_of_int s) (Int64.of_int (s + 1))) l in
      let p = Patch.of_facts (facts xs) and q = Patch.of_facts (facts ys) in
      let merged = Patch.merge p q in
      let expect = Patch.of_facts (facts xs @ facts ys) in
      List.length (Patch.to_list merged) = List.length (Patch.to_list expect)
      && List.for_all2 Fact.equal (Patch.to_list merged) (Patch.to_list expect))

(* ---------- Pyramid: tombstone policy ---------- *)

let tomb_pyramid () = Pyramid.create ~policy:Pyramid.Tombstones ~name:"t" ()

let test_pyr_insert_find () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"a" ~value:"1";
  Pyramid.insert p ~seq:2L ~key:"b" ~value:"2";
  check str_opt "a" (Some "1") (Pyramid.find p "a");
  check str_opt "b" (Some "2") (Pyramid.find p "b");
  check str_opt "absent" None (Pyramid.find p "c")

let test_pyr_overwrite_latest_wins () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"old";
  Pyramid.insert p ~seq:5L ~key:"k" ~value:"new";
  check str_opt "latest" (Some "new") (Pyramid.find p "k");
  Pyramid.flush p;
  check str_opt "after flush" (Some "new") (Pyramid.find p "k")

let test_pyr_out_of_order_seq () =
  (* "confused or lagging writers may safely reorder inserts" *)
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:5L ~key:"k" ~value:"new";
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"old";
  check str_opt "seq decides, not arrival" (Some "new") (Pyramid.find p "k")

let test_pyr_tombstone_delete () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"v";
  Pyramid.delete p ~seq:2L ~key:"k";
  check str_opt "deleted" None (Pyramid.find p "k");
  (* reinsertion after delete *)
  Pyramid.insert p ~seq:3L ~key:"k" ~value:"back";
  check str_opt "reinserted" (Some "back") (Pyramid.find p "k")

let test_pyr_snapshot_reads () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"v1";
  Pyramid.insert p ~seq:5L ~key:"k" ~value:"v2";
  Pyramid.delete p ~seq:9L ~key:"k";
  check str_opt "at 1" (Some "v1") (Pyramid.find ~snapshot:1L p "k");
  check str_opt "at 4" (Some "v1") (Pyramid.find ~snapshot:4L p "k");
  check str_opt "at 5" (Some "v2") (Pyramid.find ~snapshot:5L p "k");
  check str_opt "at 9 deleted" None (Pyramid.find ~snapshot:9L p "k");
  check str_opt "snapshot before create" None (Pyramid.find ~snapshot:0L p "k")

let test_pyr_flush_merge_flatten_preserve_reads () =
  let p = tomb_pyramid () in
  for i = 1 to 50 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(Printf.sprintf "k%02d" (i mod 10))
      ~value:(string_of_int i)
  done;
  Pyramid.flush p;
  for i = 51 to 100 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(Printf.sprintf "k%02d" (i mod 10))
      ~value:(string_of_int i)
  done;
  Pyramid.flush p;
  let before = List.init 10 (fun i -> Pyramid.find p (Printf.sprintf "k%02d" i)) in
  while Pyramid.merge_step p do () done;
  let after_merge = List.init 10 (fun i -> Pyramid.find p (Printf.sprintf "k%02d" i)) in
  check (Alcotest.list str_opt) "merge preserves" before after_merge;
  Pyramid.flatten p;
  let after_flatten = List.init 10 (fun i -> Pyramid.find p (Printf.sprintf "k%02d" i)) in
  check (Alcotest.list str_opt) "flatten preserves" before after_flatten;
  check int "single patch" 1 (Pyramid.patch_count p);
  check int "flatten drops shadowed facts" 10 (Pyramid.fact_count p)

let test_pyr_tombstones_discarded_at_bottom () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"v";
  Pyramid.delete p ~seq:2L ~key:"k";
  Pyramid.flatten p;
  check int "nothing left" 0 (Pyramid.fact_count p);
  check str_opt "still deleted" None (Pyramid.find p "k")

let test_pyr_auto_flush () =
  let p = Pyramid.create ~memtable_flush_count:10 ~policy:Pyramid.Tombstones ~name:"t" () in
  for i = 1 to 25 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(string_of_int i) ~value:"x"
  done;
  (* two auto-flushes happened; tiered maintenance may have merged them *)
  check bool "auto-flushed" true (Pyramid.patch_count p >= 1);
  check int "memtable small" 5 (Pyramid.memtable_size p);
  check int "all facts present" 25 (Pyramid.fact_count p)

let test_pyr_tiered_compaction_bounds_patches () =
  (* many equal-sized flushes must not produce many patches *)
  let p = Pyramid.create ~memtable_flush_count:1_000_000 ~policy:Pyramid.Tombstones ~name:"t" () in
  let seq = ref 0L in
  for round = 0 to 63 do
    for i = 0 to 31 do
      seq := Int64.add !seq 1L;
      Pyramid.insert p ~seq:!seq ~key:(Printf.sprintf "%d-%d" round i) ~value:"x"
    done;
    Pyramid.flush p
  done;
  check bool
    (Printf.sprintf "patch count %d is logarithmic" (Pyramid.patch_count p))
    true
    (Pyramid.patch_count p <= 8);
  check int "no facts lost" 2048 (Pyramid.fact_count p)

let test_pyr_replay_idempotent () =
  (* Recovery replays NVRAM facts on top of already-persisted state. *)
  let p = tomb_pyramid () in
  let facts =
    [ Fact.make ~key:"a" ~value:"1" ~seq:1L; Fact.make ~key:"b" ~value:"2" ~seq:2L ]
  in
  List.iter (Pyramid.insert_fact p) facts;
  Pyramid.flush p;
  (* replay the same facts, twice, out of order *)
  List.iter (Pyramid.insert_fact p) (List.rev facts);
  List.iter (Pyramid.insert_fact p) facts;
  Pyramid.flatten p;
  check int "no duplicates" 2 (Pyramid.fact_count p);
  check str_opt "a" (Some "1") (Pyramid.find p "a")

(* ---------- Pyramid: elision policy ---------- *)

(* Keys "medium:offset"; the elide rule extracts the medium id. *)
let medium_of_fact f =
  match String.index_opt f.Fact.key ':' with
  | Some i -> int_of_string (String.sub f.Fact.key 0 i)
  | None -> -1

let elide_pyramid () = Pyramid.create ~policy:(Pyramid.Elide medium_of_fact) ~name:"m" ()

let test_elide_basic () =
  let p = elide_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"7:0" ~value:"a";
  Pyramid.insert p ~seq:2L ~key:"7:1" ~value:"b";
  Pyramid.insert p ~seq:3L ~key:"8:0" ~value:"c";
  Pyramid.elide_id p ~seq:4L 7;
  check str_opt "7:0 elided" None (Pyramid.find p "7:0");
  check str_opt "7:1 elided" None (Pyramid.find p "7:1");
  check str_opt "8:0 alive" (Some "c") (Pyramid.find p "8:0")

let test_elide_is_atomic_over_all_matches () =
  let p = elide_pyramid () in
  for i = 0 to 99 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "5:%d" i) ~value:"x"
  done;
  Pyramid.elide_id p ~seq:200L 5;
  check int "all hundred retracted" 0 (Pyramid.live_key_count p)

let test_elide_range () =
  let p = elide_pyramid () in
  for m = 0 to 9 do
    Pyramid.insert p ~seq:(Int64.of_int (m + 1)) ~key:(Printf.sprintf "%d:0" m) ~value:"x"
  done;
  Pyramid.elide_range p ~seq:100L ~lo:3 ~hi:6;
  check int "six left" 6 (Pyramid.live_key_count p);
  check str_opt "2 alive" (Some "x") (Pyramid.find p "2:0");
  check str_opt "4 dead" None (Pyramid.find p "4:0")

let test_elide_snapshot () =
  let p = elide_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"7:0" ~value:"a";
  Pyramid.elide_id p ~seq:5L 7;
  check str_opt "before elide" (Some "a") (Pyramid.find ~snapshot:4L p "7:0");
  check str_opt "after elide" None (Pyramid.find ~snapshot:5L p "7:0")

let test_elide_relaxed_reader_sees_ghosts () =
  let p = elide_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"7:0" ~value:"ghost";
  Pyramid.elide_id p ~seq:2L 7;
  check str_opt "strict read" None (Pyramid.find p "7:0");
  check str_opt "relaxed read observes retracted tuple" (Some "ghost")
    (Pyramid.find_ignoring_retractions p "7:0")

let test_elide_reclaims_space_on_merge () =
  let p = elide_pyramid () in
  for i = 0 to 49 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "1:%d" i) ~value:"x"
  done;
  Pyramid.flush p;
  for i = 0 to 49 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 100)) ~key:(Printf.sprintf "2:%d" i) ~value:"x"
  done;
  Pyramid.flush p;
  (* tiered maintenance already combined the two flushes into one patch *)
  Pyramid.elide_id p ~seq:500L 1;
  check int "facts still stored" 100 (Pyramid.fact_count p);
  (* the next ordinary merge (triggered by a comparable-size flush) drops
     the elided facts immediately: no waiting for a tombstone to reach the
     bottom level *)
  for i = 0 to 49 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 200)) ~key:(Printf.sprintf "3:%d" i) ~value:"x"
  done;
  Pyramid.flush p;
  check int "elided facts reclaimed by routine merging" 100 (Pyramid.fact_count p)

let test_elide_table_collapses () =
  let p = elide_pyramid () in
  for m = 0 to 999 do
    Pyramid.elide_id p ~seq:(Int64.of_int (m + 1)) m
  done;
  check int "1000 dense elides collapse to 1 range" 1 (Pyramid.elide_range_count p)

let test_elide_delete_raises () =
  let p = elide_pyramid () in
  match Pyramid.delete p ~seq:1L ~key:"x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "delete should be rejected under elision"

let test_tombstone_elide_raises () =
  let p = tomb_pyramid () in
  match Pyramid.elide_id p ~seq:1L 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "elide should be rejected under tombstones"

let test_pyr_iter_live_ordered () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"c" ~value:"3";
  Pyramid.insert p ~seq:2L ~key:"a" ~value:"1";
  Pyramid.insert p ~seq:3L ~key:"b" ~value:"2";
  Pyramid.delete p ~seq:4L ~key:"b";
  let keys = ref [] in
  Pyramid.iter_live p (fun ~key ~value:_ -> keys := key :: !keys);
  check (Alcotest.list Alcotest.string) "sorted, live only" [ "a"; "c" ] (List.rev !keys)

let test_pyr_range () =
  let p = tomb_pyramid () in
  List.iteri
    (fun i k -> Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:k ~value:k)
    [ "apple"; "banana"; "cherry"; "date" ];
  let r = Pyramid.range p ~lo:"b" ~hi:"cz" in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "range"
    [ ("banana", "banana"); ("cherry", "cherry") ]
    r

(* ---------- metadata fast path: fences, blooms, batched runs ---------- *)

let test_patch_bloom_fences () =
  let p =
    Patch.of_facts (List.init 100 (fun i -> mk (Printf.sprintf "k%03d" i) "v" (Int64.of_int (i + 1))))
  in
  check bool "large patch carries a bloom" true (Patch.has_bloom p);
  check bool "fence admits interior key" true (Patch.fence_admits p "k050");
  check bool "fence rejects below" false (Patch.fence_admits p "a");
  check bool "fence rejects above" false (Patch.fence_admits p "z");
  check bool "bloom admits member" true (Patch.bloom_admits p "k042");
  check bool "fence overlap" true (Patch.fence_overlaps p ~lo:"k090" ~hi:"zzz");
  check bool "fence no overlap" false (Patch.fence_overlaps p ~lo:"l" ~hi:"m");
  (* a tiny patch has no bloom and must admit everything *)
  let small = Patch.of_facts [ mk "a" "1" 1L ] in
  check bool "small patch: no bloom" false (Patch.has_bloom small);
  check bool "small patch admits any key" true (Patch.bloom_admits small "whatever")

let test_patch_find_latest_at () =
  let p = Patch.of_facts [ mk "k" "v1" 1L; mk "k" "v2" 5L; mk "k" "v3" 9L; mk "z" "w" 3L ] in
  let value_at snap =
    Option.map (fun f -> Option.get f.Fact.value) (Patch.find_latest_at p "k" ~snapshot:snap)
  in
  check str_opt "latest" (Some "v3") (value_at 100L);
  check str_opt "mid" (Some "v2") (value_at 7L);
  check str_opt "exact" (Some "v1") (value_at 1L);
  check str_opt "before" None (value_at 0L);
  check bool "absent key" true (Patch.find_latest_at p "nope" ~snapshot:100L = None)

let test_probe_counters_and_skips () =
  let p = Pyramid.create ~memtable_flush_count:1_000_000 ~policy:Pyramid.Tombstones ~name:"t" () in
  let seq = ref 0L in
  (* two disjoint-key patches, big enough for blooms *)
  for i = 0 to 63 do
    seq := Int64.add !seq 1L;
    Pyramid.insert p ~seq:!seq ~key:(Printf.sprintf "a%04d" i) ~value:"x"
  done;
  Pyramid.flush p;
  for i = 0 to 31 do
    seq := Int64.add !seq 1L;
    Pyramid.insert p ~seq:!seq ~key:(Printf.sprintf "b%04d" i) ~value:"y"
  done;
  Pyramid.flush p;
  (* auto-compaction may have tiered the two flushes into one patch, so
     only assert patch-count-independent lower bounds *)
  let p0, f0, _ = Pyramid.probe_stats p in
  ignore (Pyramid.find p "a0007");
  ignore (Pyramid.find p "zzzz");
  (* "zzzz" is above every fence -> at least one fence skip *)
  let p1, f1, b1 = Pyramid.probe_stats p in
  check bool "probes counted" true (p1 - p0 >= 2);
  check bool "fence skips counted" true (f1 - f0 >= 1);
  (* a key inside a fence but absent: the bloom rejects it (with ~1%
     false-positive slack, so probe several) *)
  for i = 0 to 49 do
    ignore (Pyramid.find p (Printf.sprintf "a%04d-absent" i))
  done;
  let _, _, b2 = Pyramid.probe_stats p in
  check bool "bloom skips counted" true (b2 - b1 >= 40);
  check bool "results unaffected" true
    (Pyramid.find p "a0007" = Some "x" && Pyramid.find p "zzzz" = None)

let test_exists_live_in_range () =
  let p = tomb_pyramid () in
  List.iteri
    (fun i k -> Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:k ~value:k)
    [ "apple"; "banana"; "cherry" ];
  Pyramid.delete p ~seq:10L ~key:"banana";
  Pyramid.flush p;
  let agree ~lo ~hi =
    check bool
      (Printf.sprintf "exists agrees with range on [%s,%s]" lo hi)
      (Pyramid.range p ~lo ~hi <> [])
      (Pyramid.exists_live_in_range p ~lo ~hi)
  in
  agree ~lo:"a" ~hi:"z";
  agree ~lo:"b" ~hi:"bz";
  (* banana is deleted: live-exists must say no *)
  agree ~lo:"aa" ~hi:"az";
  agree ~lo:"d" ~hi:"z"

let test_elide_snapshot_indexed () =
  (* several elides at distinct seqs; snapshot reads must respect exactly
     the entries committed by then (exercises the eseq index) *)
  let p = elide_pyramid () in
  for m = 0 to 9 do
    Pyramid.insert p ~seq:(Int64.of_int (m + 1)) ~key:(Printf.sprintf "%d:0" m) ~value:"x"
  done;
  Pyramid.elide_id p ~seq:20L 2;
  Pyramid.elide_id p ~seq:30L 5;
  Pyramid.elide_id p ~seq:40L 7;
  check str_opt "snap 15: 2 alive" (Some "x") (Pyramid.find ~snapshot:15L p "2:0");
  check str_opt "snap 20: 2 dead" None (Pyramid.find ~snapshot:20L p "2:0");
  check str_opt "snap 25: 5 alive" (Some "x") (Pyramid.find ~snapshot:25L p "5:0");
  check str_opt "snap 35: 5 dead, 7 alive" None (Pyramid.find ~snapshot:35L p "5:0");
  check str_opt "snap 35: 7 alive" (Some "x") (Pyramid.find ~snapshot:35L p "7:0");
  check str_opt "snap 40: 7 dead" None (Pyramid.find ~snapshot:40L p "7:0");
  (* a later elide invalidates the index; rebuilt answers stay right *)
  Pyramid.elide_id p ~seq:50L 9;
  check str_opt "snap 45 after rebuild: 9 alive" (Some "x") (Pyramid.find ~snapshot:45L p "9:0");
  check str_opt "snap 50 after rebuild: 9 dead" None (Pyramid.find ~snapshot:50L p "9:0")

let pyramid_ops_gen =
  QCheck.Gen.(
    list_size (0 -- 150)
      (oneof
         [
           map
             (fun (k, v) -> `Insert (k, v))
             (pair (string_size ~gen:(char_range 'a' 'f') (1 -- 3)) (int_bound 100));
           map (fun k -> `Delete k) (string_size ~gen:(char_range 'a' 'f') (1 -- 3));
           return `Flush;
           return `Merge;
           return `Flatten;
         ]))

let apply_ops p ops =
  let seq = ref 0L in
  List.iter
    (function
      | `Insert (k, v) ->
        seq := Int64.add !seq 1L;
        Pyramid.insert p ~seq:!seq ~key:k ~value:(string_of_int v)
      | `Delete k ->
        seq := Int64.add !seq 1L;
        Pyramid.delete p ~seq:!seq ~key:k
      | `Flush -> Pyramid.flush p
      | `Merge -> ignore (Pyramid.merge_step p)
      | `Flatten -> Pyramid.flatten p)
    ops;
  !seq

let prop_fast_find_equals_naive =
  (* the bloom-fenced lookup must be bit-identical to the per-patch scan,
     for present keys, absent keys and every snapshot *)
  QCheck.Test.make ~name:"fenced find = naive find (keys x snapshots)" ~count:150
    (QCheck.make pyramid_ops_gen)
    (fun ops ->
      let p = Pyramid.create ~memtable_flush_count:8 ~policy:Pyramid.Tombstones ~name:"t" () in
      let max_seq = apply_ops p ops in
      let keys =
        (* the op alphabet, plus keys no op can generate *)
        List.concat_map (fun a -> List.map (fun b -> a ^ b) [ ""; "a"; "f"; "zz" ])
          [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
      in
      let snapshots =
        [ 0L; 1L; Int64.div max_seq 2L; max_seq; Int64.add max_seq 5L; Int64.max_int ]
      in
      List.for_all
        (fun key ->
          List.for_all
            (fun snapshot ->
              Pyramid.find ~snapshot p key = Pyramid.find_naive ~snapshot p key)
            snapshots)
        keys)

let prop_find_run_equals_point =
  (* batched range lookup = per-key point lookup over a sliding window *)
  QCheck.Test.make ~name:"find_run = per-key find" ~count:150
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 120)
           (oneof
              [
                map (fun (b, v) -> `Insert (b, v)) (pair (int_bound 30) (int_bound 100));
                map (fun b -> `Delete b) (int_bound 30);
                return `Flush;
                return `Merge;
              ])))
    (fun ops ->
      let key_of_block b = Printf.sprintf "%04d" b in
      let p = Pyramid.create ~memtable_flush_count:16 ~policy:Pyramid.Tombstones ~name:"t" () in
      let seq = ref 0L in
      List.iter
        (function
          | `Insert (b, v) ->
            seq := Int64.add !seq 1L;
            Pyramid.insert p ~seq:!seq ~key:(key_of_block b) ~value:(string_of_int v)
          | `Delete b ->
            seq := Int64.add !seq 1L;
            Pyramid.delete p ~seq:!seq ~key:(key_of_block b)
          | `Flush -> Pyramid.flush p
          | `Merge -> ignore (Pyramid.merge_step p))
        ops;
      let n = 12 in
      List.for_all
        (fun base ->
          let run =
            Pyramid.find_run p ~n
              ~key_of:(fun i -> key_of_block (base + i))
              ~index:(fun key -> int_of_string key - base)
          in
          List.for_all
            (fun i ->
              Pyramid.resolve_fact p run.(i) = Pyramid.find p (key_of_block (base + i)))
            (List.init n Fun.id))
        [ 0; 7; 25 ])

(* ---------- the merge kernel vs a list reference ---------- *)

(* What every merge must compute: concatenate the runs (shallowest
   first), stable-sort by key ascending then seq descending, and drop
   adjacent (key, seq) duplicates, keeping the first — the shallower
   run's fact. Then keep what [keep] accepts and, under [latest], only the
   first fact per key, minus tombstones under [drop_tombstones]. *)
let reference_merge ?(keep = fun _ -> true) ?(latest = false) ?(drop_tombstones = false) runs =
  let same_key a b = String.equal a.Fact.key b.Fact.key in
  let rec dedup = function
    | a :: b :: rest when same_key a b && Int64.equal a.Fact.seq b.Fact.seq -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  let rec first_per_key = function
    | a :: b :: rest when same_key a b -> first_per_key (a :: rest)
    | a :: rest -> a :: first_per_key rest
    | [] -> []
  in
  let facts = List.filter keep (dedup (List.stable_sort Fact.compare_key_seq (List.concat runs))) in
  if not latest then facts
  else List.filter (fun f -> not (drop_tombstones && Fact.is_tombstone f)) (first_per_key facts)

let same_facts a b = List.length a = List.length b && List.for_all2 Fact.equal a b

(* Facts over a tiny key and seq space, so one (key, seq) lands in several
   runs — usually with different values. *)
let fact_gen ~tombstones =
  QCheck.Gen.(
    map3
      (fun key seq v ->
        let seq = Int64.of_int (seq + 1) in
        match v with
        | Some v -> Fact.make ~key ~value:(string_of_int v) ~seq
        | None -> Fact.tombstone ~key ~seq)
      (string_size ~gen:(char_range 'a' 'd') (1 -- 2))
      (int_bound 11)
      (if tombstones then opt ~ratio:0.8 (int_bound 99) else map Option.some (int_bound 99)))

let runs_gen ~tombstones = QCheck.Gen.(list_size (0 -- 6) (list_size (0 -- 25) (fact_gen ~tombstones)))

let print_runs runs =
  String.concat " | "
    (List.map (fun run -> String.concat " " (List.map (Fmt.str "%a" Fact.pp) run)) runs)

(* keeps depend on the value, so which duplicate survives matters *)
let odd_value f = match f.Fact.value with Some v -> int_of_string v mod 2 = 1 | None -> true

let prop_merge_many_equals_reference =
  QCheck.Test.make ~name:"merge_many = list reference merge" ~count:300
    (QCheck.make ~print:print_runs (runs_gen ~tombstones:true))
    (fun specs ->
      let patches = List.map Patch.of_facts specs in
      let runs = List.map Patch.to_list patches in
      List.for_all
        (fun (keep, latest, drop_tombstones) ->
          let expect = reference_merge ?keep ~latest ~drop_tombstones runs in
          let seen = ref [] in
          Patch.iter_merged ?keep ~latest ~drop_tombstones patches (fun f -> seen := f :: !seen);
          same_facts expect (Patch.to_list (Patch.merge_many ?keep ~latest ~drop_tombstones patches))
          && same_facts expect (List.rev !seen))
        [
          (None, false, false);
          (Some odd_value, false, false);
          (None, true, false);
          (None, true, true);
          (Some odd_value, true, true);
        ])

(* Build a pyramid from batches, oldest first: every batch but the last
   is flushed (size-tiered compaction runs), the last stays in the
   memtable. Under elision the facts' first letter is their elide id and
   [elides] are applied afterwards at seqs 101, 102, ... Checks
   iter_live at a random snapshot and at the edges, then merge_step, then
   flatten, each against [reference_merge] over the batches. *)
let check_pyramid_against_reference ~elision ((batches, elides), snapshot) =
  let id_of f = Char.code f.Fact.key.[0] - Char.code 'a' in
  let policy = if elision then Pyramid.Elide id_of else Pyramid.Tombstones in
  let p = Pyramid.create ~memtable_flush_count:1000 ~policy ~name:"ref" () in
  let nbatches = List.length batches in
  List.iteri
    (fun i batch ->
      List.iter (Pyramid.insert_fact p) batch;
      if i < nbatches - 1 then Pyramid.flush p)
    batches;
  let elides = if elision then List.mapi (fun i id -> (Int64.of_int (101 + i), id)) elides else [] in
  List.iter (fun (seq, id) -> Pyramid.elide_id p ~seq id) elides;
  let elided_at s f = List.exists (fun (eseq, id) -> Int64.compare eseq s <= 0 && id = id_of f) elides in
  (* the memtable keeps the first insert of a (key, seq); so does the
     stable sort within a batch *)
  let runs = List.rev batches in
  let live_at s =
    let got = ref [] in
    Pyramid.iter_live ~snapshot:s p (fun ~key ~value -> got := (key, value) :: !got);
    let expect =
      reference_merge ~keep:(fun f -> Int64.compare f.Fact.seq s <= 0) ~latest:true
        ~drop_tombstones:true runs
      |> List.filter (fun f -> not (elided_at s f))
      |> List.filter_map (fun f -> Option.map (fun v -> (f.Fact.key, v)) f.Fact.value)
    in
    List.rev !got = expect
  in
  let not_elided f = not (elided_at Int64.max_int f) in
  let snapshots = [ 0L; Int64.of_int snapshot; 12L; 101L; 102L; 103L; Int64.max_int ] in
  List.for_all live_at snapshots
  && begin
       Pyramid.flush p;
       match Pyramid.patches p with
       | a :: b :: rest ->
         let expect = reference_merge ~keep:not_elided [ Patch.to_list a; Patch.to_list b ] in
         Pyramid.merge_step p
         && List.length (Pyramid.patches p) = List.length rest + 1
         && same_facts expect (Patch.to_list (List.hd (Pyramid.patches p)))
       | _ -> not (Pyramid.merge_step p)
     end
  && begin
       Pyramid.flatten p;
       let expect = reference_merge ~keep:not_elided ~latest:true ~drop_tombstones:true runs in
       match Pyramid.patches p with
       | [] -> expect = []
       | [ bottom ] -> same_facts expect (Patch.to_list bottom)
       | _ -> false
     end

let prop_pyramid_ops_equal_reference ~elision =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s pyramid = list reference" (if elision then "elision" else "tombstone"))
    ~count:200
    (QCheck.make
       ~print:(fun ((batches, elides), snapshot) ->
         Printf.sprintf "%s; elide %s; snapshot %d" (print_runs batches)
           (String.concat "," (List.map string_of_int elides))
           snapshot)
       QCheck.Gen.(
         pair
           (pair
              (list_size (1 -- 5) (list_size (0 -- 20) (fact_gen ~tombstones:(not elision))))
              (list_size (0 -- 3) (int_bound 3)))
           (int_bound 13)))
    (check_pyramid_against_reference ~elision)

let prop_pyramid_matches_model =
  (* Pyramid vs a naive Map model under random insert/delete/flush/merge. *)
  QCheck.Test.make ~name:"pyramid agrees with naive map model" ~count:150
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 120)
           (oneof
              [
                map
                  (fun (k, v) -> `Insert (k, v))
                  (pair (string_size ~gen:(char_range 'a' 'e') (1 -- 2)) (int_bound 100));
                map (fun k -> `Delete k) (string_size ~gen:(char_range 'a' 'e') (1 -- 2));
                return `Flush;
                return `Merge;
                return `Flatten;
              ])))
    (fun ops ->
      let p = tomb_pyramid () in
      let model = ref [] in
      let seq = ref 0L in
      let next () =
        seq := Int64.add !seq 1L;
        !seq
      in
      List.iter
        (function
          | `Insert (k, v) ->
            Pyramid.insert p ~seq:(next ()) ~key:k ~value:(string_of_int v);
            model := (k, Some (string_of_int v)) :: List.remove_assoc k !model
          | `Delete k ->
            Pyramid.delete p ~seq:(next ()) ~key:k;
            model := (k, None) :: List.remove_assoc k !model
          | `Flush -> Pyramid.flush p
          | `Merge -> ignore (Pyramid.merge_step p)
          | `Flatten -> Pyramid.flatten p)
        ops;
      List.for_all (fun (k, v) -> Pyramid.find p k = v) !model)

let () =
  Alcotest.run "pyramid"
    [
      ( "seqno",
        [
          Alcotest.test_case "monotone" `Quick test_seqno_monotone;
          Alcotest.test_case "batch" `Quick test_seqno_batch;
          Alcotest.test_case "restore" `Quick test_seqno_restore;
        ] );
      ( "fact",
        [
          Alcotest.test_case "encode roundtrip" `Quick test_fact_encode_roundtrip;
          Alcotest.test_case "ordering" `Quick test_fact_ordering;
        ] );
      ( "patch",
        [
          Alcotest.test_case "sorted dedup" `Quick test_patch_sorted_dedup;
          Alcotest.test_case "find" `Quick test_patch_find;
          Alcotest.test_case "merge idempotent/commutative" `Quick test_patch_merge_idempotent;
          Alcotest.test_case "ranges" `Quick test_patch_ranges;
          Alcotest.test_case "compact" `Quick test_patch_compact;
          Alcotest.test_case "serialize roundtrip" `Quick test_patch_serialize_roundtrip;
          Alcotest.test_case "serialize corruption" `Quick test_patch_serialize_corruption;
          QCheck_alcotest.to_alcotest prop_patch_merge_equals_union;
        ] );
      ( "pyramid",
        [
          Alcotest.test_case "insert/find" `Quick test_pyr_insert_find;
          Alcotest.test_case "latest wins" `Quick test_pyr_overwrite_latest_wins;
          Alcotest.test_case "out-of-order seq" `Quick test_pyr_out_of_order_seq;
          Alcotest.test_case "tombstone delete" `Quick test_pyr_tombstone_delete;
          Alcotest.test_case "snapshot reads" `Quick test_pyr_snapshot_reads;
          Alcotest.test_case "flush/merge/flatten preserve" `Quick
            test_pyr_flush_merge_flatten_preserve_reads;
          Alcotest.test_case "tombstones dropped at bottom" `Quick
            test_pyr_tombstones_discarded_at_bottom;
          Alcotest.test_case "auto flush" `Quick test_pyr_auto_flush;
          Alcotest.test_case "tiered compaction" `Quick test_pyr_tiered_compaction_bounds_patches;
          Alcotest.test_case "replay idempotent" `Quick test_pyr_replay_idempotent;
          Alcotest.test_case "iter_live ordered" `Quick test_pyr_iter_live_ordered;
          Alcotest.test_case "range" `Quick test_pyr_range;
          QCheck_alcotest.to_alcotest prop_pyramid_matches_model;
          Alcotest.test_case "patch fences + bloom" `Quick test_patch_bloom_fences;
          Alcotest.test_case "patch find_latest_at" `Quick test_patch_find_latest_at;
          Alcotest.test_case "probe counters + skips" `Quick test_probe_counters_and_skips;
          Alcotest.test_case "exists_live_in_range" `Quick test_exists_live_in_range;
          QCheck_alcotest.to_alcotest prop_fast_find_equals_naive;
          QCheck_alcotest.to_alcotest prop_find_run_equals_point;
          QCheck_alcotest.to_alcotest prop_merge_many_equals_reference;
          QCheck_alcotest.to_alcotest (prop_pyramid_ops_equal_reference ~elision:false);
          QCheck_alcotest.to_alcotest (prop_pyramid_ops_equal_reference ~elision:true);
        ] );
      ( "elision",
        [
          Alcotest.test_case "basic" `Quick test_elide_basic;
          Alcotest.test_case "atomic over matches" `Quick test_elide_is_atomic_over_all_matches;
          Alcotest.test_case "range" `Quick test_elide_range;
          Alcotest.test_case "snapshot" `Quick test_elide_snapshot;
          Alcotest.test_case "relaxed reader" `Quick test_elide_relaxed_reader_sees_ghosts;
          Alcotest.test_case "merge reclaims immediately" `Quick test_elide_reclaims_space_on_merge;
          Alcotest.test_case "table collapses" `Quick test_elide_table_collapses;
          Alcotest.test_case "delete raises" `Quick test_elide_delete_raises;
          Alcotest.test_case "elide raises on tombstone table" `Quick test_tombstone_elide_raises;
          Alcotest.test_case "snapshot via eseq index" `Quick test_elide_snapshot_indexed;
        ] );
    ]
