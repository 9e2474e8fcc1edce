(* E9 — §4.10: elision vs tombstones.

   Dropping a medium under elision is ONE retraction record and the very
   next merge reclaims every matching fact; under tombstones it is one
   record per key and space returns only when the tombstones sink to the
   bottom level. We also verify the elide table's range encoding stays
   bounded as thousands of dense ids are retracted. *)

open Bench_util
module Pyramid = Purity_pyramid.Pyramid
module Fact = Purity_pyramid.Fact

let mediums = 64
let blocks_per_medium = 256

let key m b = Printf.sprintf "%04d:%06d" m b

let medium_of_fact (f : Fact.t) = int_of_string (String.sub f.Fact.key 0 4)

let load pyr =
  let seq = ref 0L in
  let next () =
    seq := Int64.add !seq 1L;
    !seq
  in
  for m = 0 to mediums - 1 do
    for b = 0 to blocks_per_medium - 1 do
      Pyramid.insert pyr ~seq:(next ()) ~key:(key m b) ~value:"ref"
    done;
    (* one patch per medium: a many-levelled pyramid *)
    Pyramid.flush pyr
  done;
  next

let run () =
  section "E9 / §4.10 — elision vs tombstones (drop half the mediums)";
  let total = mediums * blocks_per_medium in
  (* --- elision --- *)
  let el = Pyramid.create ~policy:(Pyramid.Elide medium_of_fact) ~name:"elide" () in
  let next = load el in
  let facts0 = Pyramid.fact_count el in
  Pyramid.elide_range el ~seq:(next ()) ~lo:0 ~hi:(mediums / 2 - 1);
  let elide_delete_records = 1 in
  let elide_after_insert = Pyramid.fact_count el in
  while Pyramid.merge_step el do () done;
  let elide_after_merges = Pyramid.fact_count el in
  Pyramid.flatten el;
  let elide_final = Pyramid.fact_count el in
  (* --- tombstones --- *)
  let tb = Pyramid.create ~policy:Pyramid.Tombstones ~name:"tomb" () in
  let next = load tb in
  Pyramid.flush tb;
  for m = 0 to (mediums / 2) - 1 do
    for b = 0 to blocks_per_medium - 1 do
      Pyramid.delete tb ~seq:(next ()) ~key:(key m b)
    done
  done;
  Pyramid.flush tb;
  let tomb_delete_records = mediums / 2 * blocks_per_medium in
  let tomb_after_insert = Pyramid.fact_count tb in
  while Pyramid.merge_step tb do () done;
  let tomb_after_merges = Pyramid.fact_count tb in
  Pyramid.flatten tb;
  let tomb_final = Pyramid.fact_count tb in
  Printf.printf "  %d facts across %d mediums; dropping %d mediums (%d facts)\n\n" total
    mediums (mediums / 2) (total / 2);
  Printf.printf "  %-34s %14s %14s\n" "" "elision" "tombstones";
  Printf.printf "  %-34s %14d %14d\n" "retraction records written" elide_delete_records
    tomb_delete_records;
  Printf.printf "  %-34s %14d %14d\n" "stored facts before deletion" facts0 facts0;
  Printf.printf "  %-34s %14d %14d\n" "stored facts after deletion" elide_after_insert
    tomb_after_insert;
  Printf.printf "  %-34s %14d %14d\n" "after merge steps (no flatten)" elide_after_merges
    tomb_after_merges;
  Printf.printf "  %-34s %14d %14d\n" "after full flatten" elide_final tomb_final;
  (* elide-table boundedness: retract thousands of dense ids *)
  let el2 = Pyramid.create ~policy:(Pyramid.Elide medium_of_fact) ~name:"el2" () in
  let seq = ref 0L in
  for m = 0 to 4999 do
    seq := Int64.add !seq 1L;
    Pyramid.elide_id el2 ~seq:!seq m
  done;
  Printf.printf "\n  5000 dense elide ids collapse to %d stored range(s)\n"
    (Pyramid.elide_range_count el2);
  Printf.printf
    "\n  Paper: elision reclaims immediately during merges, tombstones only at\n\
    \  the bottom; elide tables collapse to ranges and never leak.\n";
  shape (Printf.sprintf "1 record vs %d" tomb_delete_records) (elide_delete_records = 1);
  shape "merges alone reclaim under elision, not under tombstones"
    (elide_after_merges <= facts0 / 2 && tomb_after_merges >= facts0);
  shape "dense elide ids collapse to one range" (Pyramid.elide_range_count el2 = 1)
