(* Shared plumbing for the experiment harness: array construction at the
   bench geometry, clock draining, and table printing. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Histogram = Purity_util.Histogram
module Drive = Purity_ssd.Drive
module Export = Purity_telemetry.Export
module Json = Purity_telemetry.Json

(* Machine-readable results: each experiment's printed rows are also
   emitted as JSONL to BENCH_<id>.json through the telemetry exporter's
   line schema, so bench artefacts and phone-home logs parse the same
   way. [section] rotates the file; the experiment id is the title's
   first token ("E1 / Table 1 — ..." -> BENCH_E1.json). *)
let jsonl_out : out_channel option ref = ref None
let current_experiment = ref "bench"
let current_subsection = ref ""

let close_jsonl () =
  match !jsonl_out with
  | Some oc ->
    close_out oc;
    jsonl_out := None
  | None -> ()

let () = at_exit close_jsonl

let emit_row ~kind fields =
  match !jsonl_out with
  | None -> ()
  | Some oc ->
    let fields =
      if !current_subsection = "" then fields
      else ("subsection", Json.Str !current_subsection) :: fields
    in
    output_string oc (Export.row ~kind ~array_id:!current_experiment fields);
    output_char oc '\n'

let section title =
  close_jsonl ();
  let id =
    match String.index_opt title ' ' with
    | Some i -> String.sub title 0 i
    | None -> title
  in
  current_experiment := id;
  current_subsection := "";
  jsonl_out := Some (open_out (Printf.sprintf "BENCH_%s.json" id));
  emit_row ~kind:"bench_section" [ ("title", Json.Str title) ];
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let subsection title =
  current_subsection := title;
  emit_row ~kind:"bench_subsection" [ ("title", Json.Str title) ];
  Printf.printf "\n--- %s ---\n%!" title

(* Bench geometry: 11 drives, 7+2, 32 KiB write units, 8-row AUs
   (~260 KiB) — the paper's shape at laptop scale. *)
let bench_config ?(drives = 11) ?(num_aus = 192) ?(read_around_write = true)
    ?(inline_dedup = true) ?(compression = true) () =
  {
    Fa.default_config with
    Fa.drives;
    k = 7;
    m = 2;
    write_unit = 32 * 1024;
    drive_config =
      {
        Drive.default_config with
        Drive.au_size = 4096 + (8 * 32768);
        num_aus;
        dies = 8;
      };
    memtable_flush = 1_000_000;
    read_around_write;
    inline_dedup;
    compression;
  }

let make_array ?drives ?num_aus ?read_around_write ?inline_dedup ?compression () =
  let clock = Clock.create () in
  let config = bench_config ?drives ?num_aus ?read_around_write ?inline_dedup ?compression () in
  (clock, Fa.create ~config ~clock ())

(* Run an async operation to completion on the clock. *)
let await clock f =
  let result = ref None in
  f (fun r -> result := Some r);
  Clock.run clock;
  match !result with Some r -> r | None -> failwith "bench: operation never completed"

let ok = function Ok v -> v | Error _ -> failwith "bench: unexpected error"

let write_ok clock a ~volume ~block data =
  match await clock (Fa.write a ~volume ~block data) with
  | Ok () -> ()
  | Error _ -> failwith "bench: write failed"

(* Paper-shape checks. Every experiment states its claims through
   [shape], which prints HOLDS or DIVERGES (with the measured [detail],
   if any) and emits a row; main.exe exits 1 if any check diverged. *)
let shapes = ref [] (* (claim, holds), newest first *)

let shape ?detail claim ok =
  emit_row ~kind:"bench_shape" [ ("claim", Json.Str claim); ("holds", Json.Bool ok) ];
  Printf.printf "  Shape check: %s -> %s%s\n%!" claim
    (if ok then "HOLDS" else "DIVERGES")
    (match detail with Some d -> " (" ^ d ^ ")" | None -> "");
  shapes := (claim, ok) :: !shapes

let pp_lat name h =
  emit_row ~kind:"bench_latency"
    [
      ("name", Json.Str name);
      ("n", Json.Int (Histogram.count h));
      ("p50_us", Json.Float (Histogram.percentile h 50.0));
      ("p99_us", Json.Float (Histogram.percentile h 99.0));
      ("p999_us", Json.Float (Histogram.percentile h 99.9));
      ("max_us", Json.Float (Histogram.max_value h));
    ];
  Printf.printf "  %-24s p50=%8.0f  p99=%8.0f  p99.9=%8.0f  max=%8.0f  (us, simulated)\n" name
    (Histogram.percentile h 50.0) (Histogram.percentile h 99.0)
    (Histogram.percentile h 99.9) (Histogram.max_value h)

let row3 a b c =
  emit_row ~kind:"bench_row"
    [ ("cols", Json.Arr [ Json.Str a; Json.Str b; Json.Str c ]) ];
  Printf.printf "  %-34s %18s %18s\n" a b c

let row4 a b c d =
  emit_row ~kind:"bench_row"
    [ ("cols", Json.Arr [ Json.Str a; Json.Str b; Json.Str c; Json.Str d ]) ];
  Printf.printf "  %-30s %14s %14s %14s\n" a b c d

let human_bytes b =
  if b >= 1 lsl 30 then Printf.sprintf "%.1f GiB" (float_of_int b /. 1073741824.0)
  else if b >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.0)
  else if b >= 1 lsl 10 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%d B" b

let human_us us =
  if us >= 1e6 then Printf.sprintf "%.2f s" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.2f ms" (us /. 1e3)
  else Printf.sprintf "%.0f us" us
