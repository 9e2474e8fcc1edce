(* E2 — Table 2: scale-out key-value deployments vs FA-450 consolidation
   ratios (the paper's own analytic estimate, recomputed). *)

open Bench_util
module Scaleout = Purity_baseline.Scaleout

let run () =
  section "E2 / Table 2 — key-value store consolidation ratios";
  let rows = Scaleout.table () in
  Fmt.pr "%a@." Scaleout.pp_table rows;
  Printf.printf
    "  Paper's estimate: 100-250:1 consolidation ratios; measured ratios: %s\n"
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "%.0f:1" r.Scaleout.nodes_per_array) rows));
  let in_band =
    List.for_all
      (fun r -> r.Scaleout.nodes_per_array >= 75.0 && r.Scaleout.nodes_per_array <= 300.0)
      rows
  in
  shape "all in the paper's 100-250:1 band (+/- margin)" in_band
