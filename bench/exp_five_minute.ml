(* E5 — Figure 7: relative cost of storing data vs access frequency for
   Purity at 1x/4x/10x reduction, hard disk, and ECC DIMM, plus the
   derived rules of thumb. *)

open Bench_util
module Fm = Purity_baseline.Five_minute

let pp_interval s =
  if s >= 31536000.0 then "1yr"
  else if s >= 2419200.0 then "4w"
  else if s >= 604800.0 then "1w"
  else if s >= 86400.0 then "1d"
  else if s >= 3600.0 then "1h"
  else if s >= 60.0 then Printf.sprintf "%.0fm" (s /. 60.0)
  else Printf.sprintf "%.0fs" s

let run () =
  section "E5 / Figure 7 — the five-minute rule with data reduction";
  let series = Fm.figure7_series () in
  let intervals = List.map fst (snd (List.hd series)) in
  Printf.printf "  %-18s" "relative cost";
  List.iter (fun s -> Printf.printf "%8s" (pp_interval s)) intervals;
  Printf.printf "\n";
  List.iter
    (fun (name, points) ->
      Printf.printf "  %-18s" name;
      List.iter
        (fun (_, c) ->
          if c >= 100.0 then Printf.printf "%8.0f" c
          else if c >= 1.0 then Printf.printf "%8.1f" c
          else Printf.printf "%8.2f" c)
        points;
      Printf.printf "\n")
    series;
  let obj = 55 * 1024 in
  let cross r =
    match Fm.crossover_interval_s (Fm.purity ~reduction:r) ~baseline:Fm.ecc_dimm ~object_bytes:obj with
    | Some s -> pp_interval s
    | None -> "never"
  in
  Printf.printf "\n  Break-even with RAM (55 KiB objects):\n";
  Printf.printf "    no reduction : %s\n" (cross 1.0);
  Printf.printf "    4x (RDBMS)   : %s\n" (cross 4.0);
  Printf.printf "    10x (MongoDB): %s\n" (cross 10.0);
  (match
     Fm.crossover_interval_s Fm.hard_disk ~baseline:Fm.ecc_dimm ~object_bytes:obj
   with
  | Some s -> Printf.printf "    hard disk    : %s\n" (pp_interval s)
  | None -> Printf.printf "    hard disk    : never\n");
  Printf.printf
    "\n  Paper's rules of thumb: performance disk is dead; with data reduction,\n\
    \  never cache data accessed less often than ~every half hour (10-minute\n\
    \  rule for 4x-reduced 'important' data).\n";
  let c10 =
    Option.value ~default:infinity
      (Fm.crossover_interval_s (Fm.purity ~reduction:10.0) ~baseline:Fm.ecc_dimm
         ~object_bytes:obj)
  in
  shape "10x-reduced flash beats RAM within 30 minutes" (c10 <= 1800.0)
