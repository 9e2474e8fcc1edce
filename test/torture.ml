(* Torture sweep: many random fault-plan scenarios through purity.check.
   Excluded from the tier-1 `dune runtest` gate; run with `make torture`
   or `dune build @torture`. Exit status 1 on the first violation, with a
   report that prints the seed and the shrunk reproducing trace.

   Two suites share the binary, both instances of Purity_check.Scenario,
   so every seed runs twice and must give identical execution digests:
   - [array]: single-array crash/recovery plans (Runner/Plan);
     `dune build @torture-array` runs the seeds 1000..1199 CI gates on;
   - [ac]: stretched-pod ActiveCluster plans — partitions, mediator
     loss, straddling writes, simultaneous crashes — audited by the
     two-array model (Ac_runner/Ac_plan). `dune build @torture-ac` runs
     the fixed seed range 1..200 that CI gates on. *)

module Runner = Purity_check.Runner
module Plan = Purity_check.Plan
module Ac_runner = Purity_check.Ac_runner
module Ac_plan = Purity_check.Ac_plan

let () =
  let suite = ref "array" in
  let base = ref 1_000L in
  let count = ref 1_000 in
  let steps = ref 0 in
  let spec =
    [
      ( "-suite",
        Arg.Symbol ([ "array"; "ac"; "all" ], fun s -> suite := s),
        " which sweep to run (default array)" );
      ("-base", Arg.String (fun s -> base := Int64.of_string s), "first seed (default 1000)");
      ("-count", Arg.Set_int count, "number of seeds (default 1000)");
      ("-steps", Arg.Set_int steps, "generation steps per scenario (0 = suite default)");
    ]
  in
  Arg.parse spec (fun _ -> ()) "torture [-suite array|ac|all] [-base N] [-count N] [-steps N]";
  let failed = ref false in
  (* [check] is a Scenario instance's check_seed: double execution,
     shrinking, one report per failure. The per-seed digests fold into
     one suite digest, so two commits' sweeps compare with one diff. *)
  let sweep ?(extra = fun () -> "") name check report_to_string =
    let t0 = Unix.gettimeofday () in
    let digest = ref 0 in
    (try
       for i = 0 to !count - 1 do
         (match check (Int64.add !base (Int64.of_int i)) with
         | Ok d -> digest := Purity_check.Scenario.mix !digest d
         | Error report ->
           print_endline (report_to_string report);
           failed := true;
           raise Exit);
         if (i + 1) mod 100 = 0 then
           Format.printf "%s: %d/%d scenarios clean (%.1fs)@." name (i + 1) !count
             (Unix.gettimeofday () -. t0)
       done
     with Exit -> ());
    if not !failed then
      Format.printf "torture[%s]: %d scenarios clean in %.1fs, digest %x%s@." name !count
        (Unix.gettimeofday () -. t0) !digest (extra ())
  in
  let n = !steps in
  let gen = if n = 0 then Plan.default_gen else { Plan.default_gen with Plan.steps = n } in
  let ac_gen =
    if n = 0 then Ac_plan.default_gen else { Ac_plan.default_gen with Ac_plan.steps = n }
  in
  (* each seed executes twice, so a clean sweep counts every refusal twice *)
  let busy () = Printf.sprintf "; %d Busy refusals" !Runner.busy_refusals in
  let array () =
    sweep ~extra:busy "array" (fun s -> Runner.check_seed ~gen s) Runner.report_to_string
  in
  let ac () = sweep "ac" (fun s -> Ac_runner.check_seed ~gen:ac_gen s) Ac_runner.report_to_string in
  (match !suite with
  | "ac" -> ac ()
  | "all" ->
    array ();
    if not !failed then ac ()
  | _ -> array ());
  if !failed then exit 1
