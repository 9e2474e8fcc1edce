(* E8 — §4.7, §5.2-5.3: data reduction by workload class.

   The paper reports 3-8x for relational databases, ~10x for document
   stores, up to 20x for VDI farms, and a 5.4x fleet-wide average. We run
   each generator through the full write path (inline dedup +
   compression), GC to steady state, and report logical:stored ratios. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Dg = Purity_workload.Datagen
module Wl = Purity_workload.Workload

type result = { name : string; reduction : float; dedup_blocks : int; note : string }

(* logical bytes of live data / stored cblock bytes (compression+dedup
   only — excludes parity and allocation slack, like the paper's data-
   reduction number as opposed to thin provisioning). *)
let reduction_of a =
  let s = Fa.stats a in
  if s.Fa.stored_bytes_written = 0 then 1.0
  else float_of_int s.Fa.logical_bytes_written /. float_of_int s.Fa.stored_bytes_written

let run_rdbms () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "oracle" ~blocks:32768);
  let dg = Dg.create ~seed:81L in
  let rec fill b =
    if b < 24576 then begin
      write_ok clock a ~volume:"oracle" ~block:b (Dg.rdbms_page dg (32 * 512));
      fill (b + 32)
    end
  in
  fill 0;
  {
    name = "RDBMS (page data)";
    reduction = reduction_of a;
    dedup_blocks = (Fa.stats a).Fa.dedup_blocks;
    note = "paper: 3-8x";
  }

let run_docstore () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "mongo" ~blocks:32768);
  let dg = Dg.create ~seed:82L in
  let rec fill b =
    if b < 24576 then begin
      write_ok clock a ~volume:"mongo" ~block:b (Dg.document dg (64 * 512));
      fill (b + 64)
    end
  in
  fill 0;
  {
    name = "Document store";
    reduction = reduction_of a;
    dedup_blocks = (Fa.stats a).Fa.dedup_blocks;
    note = "paper: ~10x";
  }

let run_vdi () =
  let clock, a = make_array () in
  let dg = Dg.create ~seed:83L in
  (* 12 desktops provisioned from the same pool of OS content *)
  for vm = 0 to 11 do
    let name = Printf.sprintf "desktop%02d" vm in
    ok (Fa.create_volume a name ~blocks:8192);
    let image = Dg.vm_image dg ~blocks:4096 in
    let rec put b =
      if b < 4096 then begin
        write_ok clock a ~volume:name ~block:b (String.sub image (b * 512) (32 * 512));
        put (b + 32)
      end
    in
    put 0
  done;
  {
    name = "VDI (12 desktops)";
    reduction = reduction_of a;
    dedup_blocks = (Fa.stats a).Fa.dedup_blocks;
    note = "paper: up to 20x";
  }

let run_uniform () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "raw" ~blocks:16384);
  let dg = Dg.create ~seed:84L in
  let rec fill b =
    if b < 12288 then begin
      write_ok clock a ~volume:"raw" ~block:b (Dg.random dg (64 * 512));
      fill (b + 64)
    end
  in
  fill 0;
  {
    name = "Incompressible";
    reduction = reduction_of a;
    dedup_blocks = (Fa.stats a).Fa.dedup_blocks;
    note = "floor: ~1x";
  }

let run () =
  section "E8 — data reduction by workload (inline dedup + compression)";
  let results = [ run_uniform (); run_rdbms (); run_docstore (); run_vdi () ] in
  Printf.printf "  %-22s %12s %16s %16s\n" "workload" "reduction" "dedup blocks" "paper";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %11.1fx %16d %16s\n" r.name r.reduction r.dedup_blocks r.note)
    results;
  let get n = (List.nth results n).reduction in
  let raw = get 0 and rdbms = get 1 and doc = get 2 and vdi = get 3 in
  print_newline ();
  let x = Printf.sprintf "%.1fx" in
  shape "incompressible stays ~1x" ~detail:(Printf.sprintf "%.2fx" raw) (raw < 1.2);
  shape "RDBMS lands in 3-8x" ~detail:(x rdbms) (rdbms >= 3.0 && rdbms <= 8.0);
  shape "docstore beats RDBMS, ~10x" ~detail:(x doc) (doc > rdbms && doc >= 6.0);
  shape "VDI is the best, >10x" ~detail:(x vdi) (vdi > doc && vdi >= 10.0);
  let avg = (raw +. rdbms +. doc +. vdi) /. 4.0 in
  Printf.printf "  mixed-fleet average (paper: 5.4x): %.1fx across these four\n" avg
