(* E10 — §4.9: metadata page compression.

   The base/offset dictionary encoding packs every tuple into the same
   number of bits and scans pages for a value without decompressing. We
   encode realistic metadata distributions (block-index and segment-table
   shapes) and report bits/tuple against plain 64-bit fields, then check
   the compressed scan returns exactly the naive scan's answer. *)

open Bench_util
module Tp = Purity_encoding.Tuple_page
module Rng = Purity_util.Rng

let block_index_tuples rng n =
  (* (medium, block, segment, offset): few mediums, clustered segments *)
  List.init n (fun i ->
      [|
        Int64.of_int (3 + Rng.int rng 6);
        Int64.of_int i;
        Int64.of_int (1000 + Rng.int rng 40);
        Int64.of_int (Rng.int rng 64 * 32768);
      |])

let segment_table_tuples rng n =
  (* (segment, payload_len, log_len, seq_lo): payload mostly full *)
  List.init n (fun i ->
      [|
        Int64.of_int (5000 + i);
        Int64.of_int (1_835_008 - Rng.int rng 3 * 4096);
        Int64.of_int (Rng.int rng 30_000);
        Int64.of_int (900_000 + (i * 210) + Rng.int rng 50);
      |])

let report name tuples =
  let arity = Array.length (List.hd tuples) in
  let n = List.length tuples in
  let page = Tp.encode ~arity tuples in
  let plain = Tp.plain_size_bytes ~arity ~count:n in
  let packed = Tp.size_bytes page in
  Printf.printf "  %-22s %6d tuples  %3d bits/tuple  %8s vs %8s plain  (%.1fx)\n" name n
    (Tp.bits_per_tuple page) (human_bytes packed) (human_bytes plain)
    (float_of_int plain /. float_of_int packed);
  page

let run () =
  section "E10 / §4.9 — metadata page compression & scan-without-decompress";
  let rng = Rng.create ~seed:101L in
  let bi = block_index_tuples rng 4000 in
  let st = segment_table_tuples rng 4000 in
  let p1 = report "block index" bi in
  let p2 = report "segment table" st in
  (* constant-field freebie *)
  let const = List.init 4000 (fun i -> [| Int64.of_int i; 42L; 42L; 42L |]) in
  let p3 = report "3 constant fields" const in
  ignore p3;
  (* scan equivalence over many probes *)
  let agree = ref true in
  for _ = 1 to 200 do
    let v = Int64.of_int (3 + Rng.int rng 6) in
    if Tp.scan p1 ~field:0 ~value:v <> Tp.scan_naive p1 ~field:0 ~value:v then agree := false;
    let s = Int64.of_int (5000 + Rng.int rng 4000) in
    if Tp.scan p2 ~field:0 ~value:s <> Tp.scan_naive p2 ~field:0 ~value:s then agree := false
  done;
  print_newline ();
  shape "compressed scan == decompress-and-scan on 400 probes" !agree;
  Printf.printf
    "  Paper: same-valued extra fields take no space; pages scan as bit\n\
    \  streams without decompression. (CPU cost: see the micro suite.)\n"
