(* End-to-end benchmark of the Purity array on two clocks.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Drives one fixed-seed workload through the [Flash_array] front door
   and prints its metrics by name with units; the last stdout line is one
   JSON object. The benchmark runs its own closed loop: it pulls ops from
   a seeded generator and issues every [Fa.write]/[Fa.read] itself,
   keeping [concurrency] ops outstanding in simulated time, so each call
   into the program is timed from outside. Between batches of issues it
   drains the simulation clock with [Clock.step] until an op completes.

   --trace 0: set the array up three times (the median is [setup_s]),
   then measure a fixed number of ops untraced and report the end-to-end
   metrics. --trace 1: measure the same ops untraced and then traced on
   a fresh array, and report the per-layer metrics and the tracing
   overhead. Run length is a fixed op count per second of [--seconds],
   never a time budget, so the simulated results repeat exactly for a
   seed.

   Correctness: a shadow hash per 512 B block of the last acknowledged
   write checks every read, in set-up too (see [issue_read] for what a
   read may return). After the measured phase the array crashes and fails
   over, and every acknowledged block is read back. Any mismatch or
   failed op makes the run incorrect and the exit code 1. *)

module Fa = Purity_core.Flash_array
module Clock = Purity_sim.Clock
module Wl = Purity_workload.Workload
module Datagen = Purity_workload.Datagen
module Rng = Purity_util.Rng
module Ks = Purity_util.Kernel_stats
module Registry = Purity_telemetry.Registry
module Dedup = Purity_dedup.Dedup
module Io = Purity_sched.Io

let concurrency = 32

(* ---------- shadow state ---------- *)

let unknown = -1

(* 64-bit FNV-style hash of one 512 B block, folded to a non-negative int;
   allocation-free so the check costs little next to the op. *)
let hash_block s off =
  let h = ref 0x811c9dc5 in
  for i = 0 to 63 do
    h := (!h lxor Int64.to_int (String.get_int64_le s (off + (i * 8)))) * 0x100000001b3
  done;
  !h land max_int

let zero_hash = hash_block (String.make 512 '\000') 0

(* A write is applied to the block index in the same callback that
   acknowledges it, so acknowledgement order is apply order and [shadow]
   always holds what the array stores. *)
type vol = {
  vname : string;
  size : int; (* blocks *)
  shadow : int array; (* hash of the last acknowledged write, or [unknown] *)
  acks : int array; (* writes acknowledged per block *)
}

let make_vol vname size =
  { vname; size; shadow = Array.make size zero_hash; acks = Array.make size 0 }

(* ---------- workloads ---------- *)

type maintenance = { gc_every : int; checkpoint_every : int; min_dead_ratio : float }

type spec = {
  name : string;
  volumes : (string * int) list; (* provisioned before prefill *)
  prefill : Datagen.t -> (string * int * int) -> string; (* (vol, block, n) -> data *)
  prefill_io : int; (* blocks per prefill write *)
  after_prefill : Fa.t -> vol list -> vol list; (* snapshots / clones *)
  gen : seed:int64 -> vol list -> unit -> Wl.op;
  warmup_ops : int;
  ops_per_second : int; (* measured ops per second of --seconds *)
  maintenance : maintenance option;
}

let mib = 2048 (* 512 B blocks per MiB *)

(* oltp-hot: Workload.oltp (70% reads, Zipf 0.9 over 8-32 KiB RDBMS
   pages) over 4 x 2 MiB of prefilled pages. The Zipf head fits the read
   cache and the map cache after warm-up, so reads come from controller
   DRAM and writes are compressible. *)
let oltp_hot =
  {
    name = "oltp-hot";
    volumes = List.init 4 (fun i -> (Printf.sprintf "db%d" i, 2 * mib));
    prefill = (fun dg (_, _, n) -> Datagen.rdbms_page dg (n * 512));
    prefill_io = 64;
    after_prefill = (fun _ vols -> vols);
    gen =
      (fun ~seed vols ->
        let w = Wl.oltp ~seed ~volumes:(List.map (fun v -> (v.vname, v.size)) vols) () in
        fun () -> Wl.next_op w);
    warmup_ops = 4000;
    ops_per_second = 1900;
    maintenance = None;
  }

(* mix-cold-gc: E1's uniform 32 KiB 70/30 mix over 256 MiB prefilled 3x
   compressible; later writes are incompressible. The working set is 2x
   the read cache's logical coverage and far beyond the map cache, so
   reads go to flash; GC and checkpoint run on a fixed op cadence. *)
let mix_cold_gc =
  {
    name = "mix-cold-gc";
    volumes = [ ("lun0", 64 * mib); ("lun1", 64 * mib) ];
    prefill = (fun dg (_, _, n) -> Datagen.compressible dg (n * 512) ~target_ratio:3.0);
    prefill_io = 1024;
    after_prefill = (fun _ vols -> vols);
    gen =
      (fun ~seed vols ->
        let w =
          Wl.uniform ~seed
            ~volumes:(List.map (fun v -> (v.vname, v.size)) vols)
            ~read_fraction:0.7 ~io_blocks:64 ()
        in
        fun () -> Wl.next_op w);
    warmup_ops = 500;
    ops_per_second = 400;
    maintenance = Some { gc_every = 1000; checkpoint_every = 1500; min_dead_ratio = 0.1 };
  }

(* vdi-ingest: one golden image from Datagen.vm_image, snapshotted and
   cloned into 12 desktops; 75% of ops write 16 KiB of shared OS-image
   blocks, the rest read through the clones' medium chains. *)
let vdi_clones = 12
let vdi_image_blocks = 16 * mib

let vdi_gen ~seed vols =
  let rng = Rng.create ~seed in
  let dg = Datagen.create ~seed:(Rng.next_int64 rng) in
  let clones = Array.of_list (List.filter (fun v -> v.vname <> "golden") vols) in
  let io_blocks = 32 in
  let buf = Buffer.create (io_blocks * 512) in
  (fun () ->
      let v = clones.(Rng.int rng (Array.length clones)) in
      let block = Rng.int rng (v.size / io_blocks) * io_blocks in
      if Rng.float rng 1.0 < 0.25 then Wl.Read { volume = v.vname; block; nblocks = io_blocks }
      else begin
        Buffer.clear buf;
        let base = Rng.int rng 256 in
        for i = 0 to io_blocks - 1 do
          Buffer.add_string buf (Datagen.os_image_block dg (base + i))
        done;
        Wl.Write { volume = v.vname; block; data = Buffer.contents buf }
      end)

let vdi_ingest =
  {
    name = "vdi-ingest";
    volumes = [ ("golden", vdi_image_blocks) ];
    prefill = (fun dg (_, _, n) -> Datagen.vm_image dg ~blocks:n);
    prefill_io = 1024;
    after_prefill =
      (fun a vols ->
        let golden = List.hd vols in
        (match Fa.snapshot a ~volume:"golden" ~snap:"golden@base" with
        | Ok () -> ()
        | Error _ -> failwith "vdi-ingest: snapshot failed");
        golden
        :: List.init vdi_clones (fun i ->
               let name = Printf.sprintf "desk%02d" i in
               (match Fa.clone a ~snapshot:"golden@base" ~volume:name with
               | Ok () -> ()
               | Error _ -> failwith "vdi-ingest: clone failed");
               { (make_vol name golden.size) with shadow = Array.copy golden.shadow }));
    gen = vdi_gen;
    warmup_ops = 500;
    ops_per_second = 1600;
    maintenance = None;
  }

let workloads = [ oltp_hot; mix_cold_gc; vdi_ingest ]

(* ---------- the closed loop ---------- *)

(* Growable float sample buffer; percentiles are exact (nearest rank). *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.0; n = 0 }

let add_sample s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

let percentile s p =
  if s.n = 0 then 0.0
  else begin
    let a = sorted s in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int s.n)) in
    a.(max 0 (min (s.n - 1) (rank - 1)))
  end

let mean_of s =
  let sum = ref 0.0 in
  for i = 0 to s.n - 1 do
    sum := !sum +. s.data.(i)
  done;
  if s.n = 0 then 0.0 else !sum /. float_of_int s.n

(* Mean of the slowest [pct]% of samples: the tail as a whole. Unlike a
   percentile it does not jump when the tail is a step (cache hit vs
   flash, back-pressure vs none) sitting near the percentile's rank. *)
let tail_mean ~pct s =
  if s.n = 0 then 0.0
  else begin
    let a = sorted s in
    let k = max 1 (((s.n * pct) + 99) / 100) in
    let sum = ref 0.0 in
    for i = s.n - k to s.n - 1 do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int k
  end

type loop = {
  a : Fa.t;
  clock : Clock.t;
  vols : (string, vol) Hashtbl.t;
  vol_list : vol list;
  mutable tracer : Trace.t option;
  mutable issued : int;
  mutable completed : int;
  mutable outstanding : int;
  mutable events : int;
  mutable failed : int;
  mutable mismatched_ops : int;
  mutable checked_blocks : int;
  mutable skipped_blocks : int;
  mutable backpressure : int;
  mutable read_bytes : int;
  mutable acked_bytes : int;
  mutable reads : samples;
  mutable writes : samples;
  mutable maint_busy : bool;
  mutable gc_reports : (Purity_core.Gc.report * float) list; (* sim us per pass *)
  mutable gc_host : float list; (* host s of each [Fa.gc] call *)
  mutable ckpt_sim : float list; (* sim us call -> completion *)
  mutable ckpt_host : float list; (* host s of each [Fa.checkpoint] call *)
}

let make_loop a vols =
  let tbl = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace tbl v.vname v) vols;
  {
    a;
    clock = Fa.clock a;
    vols = tbl;
    vol_list = vols;
    tracer = None;
    issued = 0;
    completed = 0;
    outstanding = 0;
    events = 0;
    failed = 0;
    mismatched_ops = 0;
    checked_blocks = 0;
    skipped_blocks = 0;
    backpressure = 0;
    read_bytes = 0;
    acked_bytes = 0;
    reads = samples ();
    writes = samples ();
    maint_busy = false;
    gc_reports = [];
    gc_host = [];
    ckpt_sim = [];
    ckpt_host = [];
  }

let complete lp =
  lp.outstanding <- lp.outstanding - 1;
  lp.completed <- lp.completed + 1

(* A read resolves its blocks when it is issued, so it must return the
   version acknowledged last before the issue. A newer version
   acknowledged while the read was in flight is accepted too, and an
   intermediate one is counted as skipped. *)
let issue_read lp ~volume ~block ~nblocks =
  let v = Hashtbl.find lp.vols volume in
  let seen = Array.sub v.shadow block nblocks and acks = Array.sub v.acks block nblocks in
  let t0 = Clock.now lp.clock in
  lp.issued <- lp.issued + 1;
  lp.outstanding <- lp.outstanding + 1;
  Trace.wrap lp.tracer "front.read" (fun () ->
      Fa.read lp.a ~volume ~block ~nblocks (fun r ->
          (match r with
          | Error _ -> lp.failed <- lp.failed + 1
          | Ok data ->
            add_sample lp.reads (Clock.now lp.clock -. t0);
            lp.read_bytes <- lp.read_bytes + (nblocks * 512);
            let bad = ref false in
            for i = 0 to nblocks - 1 do
              let b = block + i in
              let h = hash_block data (i * 512) in
              let newer = v.acks.(b) <> acks.(i) in
              if seen.(i) = unknown then lp.skipped_blocks <- lp.skipped_blocks + 1
              else if h = seen.(i) || (newer && h = v.shadow.(b)) then
                lp.checked_blocks <- lp.checked_blocks + 1
              else if newer then lp.skipped_blocks <- lp.skipped_blocks + 1
              else bad := true
            done;
            if !bad then begin
              lp.mismatched_ops <- lp.mismatched_ops + 1;
              if lp.mismatched_ops <= 5 then
                Printf.eprintf "mismatch: %s blocks %d+%d read at sim %.1f us\n%!" volume block
                  nblocks t0
            end);
          complete lp))

let issue_write lp ~volume ~block data =
  let v = Hashtbl.find lp.vols volume in
  let t0 = Clock.now lp.clock in
  lp.issued <- lp.issued + 1;
  lp.outstanding <- lp.outstanding + 1;
  let settle ok =
    for i = 0 to (String.length data / 512) - 1 do
      let b = block + i in
      v.acks.(b) <- v.acks.(b) + 1;
      (* a failed write may or may not have reached the index *)
      v.shadow.(b) <- (if ok then hash_block data (i * 512) else unknown)
    done;
    complete lp
  in
  let rec attempt tries =
    Trace.wrap lp.tracer "front.write" (fun () ->
        Fa.write lp.a ~volume ~block data (fun r ->
            match r with
            | Ok () ->
              add_sample lp.writes (Clock.now lp.clock -. t0);
              lp.acked_bytes <- lp.acked_bytes + String.length data;
              settle true
            | Error `Backpressure when tries < 200 ->
              (* NVRAM full behind the segment writer: retry after a short
                 pause, as an initiator would *)
              lp.backpressure <- lp.backpressure + 1;
              Clock.schedule lp.clock ~delay:200.0 (fun () -> attempt (tries + 1))
            | Error _ ->
              lp.failed <- lp.failed + 1;
              settle false))
  in
  attempt 0

let issue lp = function
  | Wl.Read { volume; block; nblocks } -> issue_read lp ~volume ~block ~nblocks
  | Wl.Write { volume; block; data } -> issue_write lp ~volume ~block data

exception Stalled

(* Step the clock until one more op (or maintenance pass) completes. *)
let drain lp =
  let c0 = lp.completed and busy0 = lp.maint_busy in
  Trace.wrap lp.tracer "sim.drain" (fun () ->
      let progressed = ref true in
      while lp.completed = c0 && lp.maint_busy = busy0 && !progressed do
        progressed := Clock.step lp.clock;
        if !progressed then lp.events <- lp.events + 1
      done;
      if not !progressed then raise Stalled)

(* Let GC run with clients writing, instead of pausing them for each pass
   (--gc-concurrent). [Gc.run] re-points the block mappings it captured at
   its liveness scan once each asynchronous relocation read returns, so an
   overwrite applied during the pass is lost and reads return stale data;
   the default pause keeps the measured runs correct. *)
let gc_concurrent = ref false

(* Host seconds of [f ()], inside a span when tracing; [~registry:true]
   adds a registry diff to the span. *)
let timed ?(registry = false) lp name f =
  let reg = if registry then Option.map (fun _ -> Fa.telemetry lp.a) lp.tracer else None in
  let sp = Option.map (fun t -> Trace.start ?registry:reg t name) lp.tracer in
  let h0 = Hclock.cpu_s () in
  f ();
  let host = Hclock.cpu_s () -. h0 in
  (match (lp.tracer, sp) with Some t, Some sp -> Trace.finish ?registry:reg t sp | _ -> ());
  host

(* GC and checkpoint passes on a fixed op cadence, one at a time. By
   default clients pause for a pass: no new op is issued, every
   outstanding op completes, then the pass runs to completion inside its
   span (the [Fa.*] call plus the drain that completes it). *)
let maintenance_pass lp name call ~on_done =
  if not !gc_concurrent then
    while lp.outstanding > 0 do
      drain lp
    done;
  lp.maint_busy <- true;
  let sim0 = Clock.now lp.clock in
  timed lp name (fun () ->
      call (fun r ->
          lp.maint_busy <- false;
          on_done r (Clock.now lp.clock -. sim0));
      if not !gc_concurrent then
        while lp.maint_busy do
          if Clock.step lp.clock then lp.events <- lp.events + 1 else raise Stalled
        done)

let start_maintenance lp m ~next_gc ~next_ckpt =
  if not lp.maint_busy then begin
    if lp.issued >= !next_gc then begin
      next_gc := !next_gc + m.gc_every;
      let host =
        maintenance_pass lp "gc"
          (Fa.gc ~min_dead_ratio:m.min_dead_ratio lp.a)
          ~on_done:(fun r sim -> lp.gc_reports <- (r, sim) :: lp.gc_reports)
      in
      lp.gc_host <- host :: lp.gc_host
    end
    else if lp.issued >= !next_ckpt then begin
      next_ckpt := !next_ckpt + m.checkpoint_every;
      let host =
        maintenance_pass lp "checkpoint" (Fa.checkpoint lp.a)
          ~on_done:(fun _ sim -> lp.ckpt_sim <- sim :: lp.ckpt_sim)
      in
      lp.ckpt_host <- host :: lp.ckpt_host
    end
  end

(* Issue [ops] ops from [gen], [concurrency] outstanding, and wait for
   them and for any maintenance pass in flight. [on_progress] sees the
   completed count after every drain. *)
let run_ops ?maintenance ?(on_progress = ignore) ?(concurrency = concurrency) lp gen ~ops =
  let next_gc = ref (match maintenance with Some m -> m.gc_every | None -> max_int) in
  let next_ckpt = ref (match maintenance with Some m -> m.checkpoint_every | None -> max_int) in
  while lp.completed < ops do
    Option.iter (fun m -> start_maintenance lp m ~next_gc ~next_ckpt) maintenance;
    while lp.outstanding < concurrency && lp.issued < ops do
      issue lp (gen ())
    done;
    if lp.outstanding > 0 then drain lp;
    on_progress lp.completed
  done;
  while lp.maint_busy do
    drain lp
  done

(* ---------- set-up ---------- *)

let config = Fa.default_config

(* [setup_bad]: failed ops and mismatched reads during prefill and warm-up *)
type armed = { lp : loop; gen : unit -> Wl.op; setup_bad : int }

(* Prefill writes are large; a few in flight keep NVRAM out of back-pressure. *)
let prefill_concurrency = 4

(* Create the array, provision, prefill every volume and warm up with the
   workload's own op stream, which the measured phase then continues. *)
let setup spec ~seed =
  let clock = Clock.create () in
  let a = Fa.create ~config ~clock () in
  Wl.provision a ~volumes:spec.volumes;
  let vols = List.map (fun (name, size) -> make_vol name size) spec.volumes in
  let lp = make_loop a vols in
  let dg = Datagen.create ~seed:(Int64.add seed 0x9E37L) in
  let fills =
    List.concat_map
      (fun v -> List.init (v.size / spec.prefill_io) (fun i -> (v.vname, i * spec.prefill_io)))
      vols
  in
  let fills = ref fills in
  let prefill_op () =
    match !fills with
    | (vname, block) :: rest ->
      fills := rest;
      Wl.Write { volume = vname; block; data = spec.prefill dg (vname, block, spec.prefill_io) }
    | [] -> assert false
  in
  let total = List.length !fills in
  run_ops ~concurrency:prefill_concurrency lp prefill_op ~ops:total;
  let prefill_bad = lp.failed + lp.mismatched_ops in
  let vols = spec.after_prefill a vols in
  let lp = make_loop a vols in
  let gen = spec.gen ~seed vols in
  run_ops lp gen ~ops:spec.warmup_ops;
  (* fresh counters for the phase; the shadow state lives in [vols] *)
  { lp = make_loop a vols; gen; setup_bad = prefill_bad + lp.failed + lp.mismatched_ops }

(* --size tiny, for the self-test: 1/16 of the volumes, a tenth of the
   warm-up, GC and checkpoint five times as often. *)
let shrink spec =
  {
    spec with
    volumes = List.map (fun (n, b) -> (n, max (4 * spec.prefill_io) (b / 16))) spec.volumes;
    warmup_ops = spec.warmup_ops / 10;
    maintenance =
      Option.map
        (fun m -> { m with gc_every = m.gc_every / 5; checkpoint_every = m.checkpoint_every / 5 })
        spec.maintenance;
  }

(* ---------- the measured phase ---------- *)

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

type phase = {
  ops : int;
  host_s : float; (* host CPU of the phase, [aside] work excluded *)
  window_rates : float list; (* completed ops per host second, per window *)
  alloc_words : float; (* [aside] work excluded *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  sim_us : float;
  diff : Registry.snapshot;
  io0 : Io.stats;
  io1 : Io.stats;
  dd0 : Dedup.stats;
  dd1 : Dedup.stats;
  data_reduction : float;
  layers : Trace.layer list; (* traced run only *)
  root_s : float; (* traced run only: the root span's duration *)
}

(* Windows of equal op counts over the phase; with maintenance, one per
   GC pass so that every window carries the same background work. *)
let windows spec ~ops =
  match spec.maintenance with Some m -> max 1 (ops / m.gc_every) | None -> 10

let measure ?tracer spec armed ~ops =
  let lp = armed.lp in
  (* Input generation runs [aside]: its host time and allocation are left
     out of the phase totals (a span of its own when tracing). *)
  let aside_s = ref 0.0 and aside_words = ref 0.0 in
  let aside name f =
    Trace.wrap lp.tracer name (fun () ->
        let g0 = Gc.quick_stat () in
        let h0 = Hclock.cpu_s () in
        let r = f () in
        aside_s := !aside_s +. (Hclock.cpu_s () -. h0);
        let g1 = Gc.quick_stat () in
        aside_words :=
          !aside_words +. (g1.minor_words +. g1.major_words -. g0.minor_words -. g0.major_words);
        r)
  in
  let batch = ref [||] and pos = ref 0 and generated = ref 0 in
  let gen () =
    if !pos = Array.length !batch then begin
      let n = min 1024 (ops - !generated) in
      batch := aside "bench.gen" (fun () -> Array.init n (fun _ -> armed.gen ()));
      generated := !generated + n;
      pos := 0
    end;
    let op = !batch.(!pos) in
    incr pos;
    op
  in
  let st = Fa.state lp.a in
  let reg = Fa.telemetry lp.a in
  let base = Registry.snapshot reg in
  let io0 = Io.stats st.Purity_core.State.io in
  let dd0 = Dedup.stats st.Purity_core.State.dedup in
  lp.tracer <- tracer;
  let sim0 = Clock.now lp.clock in
  let g0 = Gc.quick_stat () in
  let root = Option.map (fun t -> Trace.start t "bench") tracer in
  let h0 = Hclock.cpu_s () in
  let nwin = windows spec ~ops in
  let marks = ref [ (0, 0.0) ] in
  let on_progress completed =
    let k = List.length !marks in
    if k <= nwin && completed >= ops * k / nwin then
      marks := (completed, Hclock.cpu_s () -. h0 -. !aside_s) :: !marks
  in
  run_ops ?maintenance:spec.maintenance ~on_progress lp gen ~ops;
  let h1 = Hclock.cpu_s () in
  (match (tracer, root) with Some t, Some sp -> Trace.finish t sp | _ -> ());
  let g1 = Gc.quick_stat () in
  let sim1 = Clock.now lp.clock in
  lp.tracer <- None;
  let diff = Registry.diff ~base ~current:(Registry.snapshot reg) in
  let rec rates = function
    | (c1, t1) :: ((c0, t0) :: _ as rest) -> (float_of_int (c1 - c0) /. (t1 -. t0)) :: rates rest
    | _ -> []
  in
  {
    ops;
    host_s = h1 -. h0 -. !aside_s;
    window_rates = List.rev (rates !marks);
    alloc_words = allocated g1 -. allocated g0 -. !aside_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    sim_us = sim1 -. sim0;
    diff;
    io0;
    io1 = Io.stats st.Purity_core.State.io;
    dd0;
    dd1 = Dedup.stats st.Purity_core.State.dedup;
    data_reduction = (Fa.stats lp.a).Fa.data_reduction;
    layers = (match tracer with Some t -> Trace.layers t | None -> []);
    root_s = (match root with Some sp -> Trace.duration sp | None -> 0.0);
  }

(* Crash the controller and fail over to the spare; the span (traced run)
   covers the call and the drain that completes it. Returns the recovery
   report and the simulated ms from crash to completion. *)
let failover lp =
  Fa.crash lp.a;
  let sim0 = Clock.now lp.clock in
  let report = ref None in
  let host =
    timed ~registry:true lp "failover" (fun () ->
        Fa.failover lp.a (fun r -> report := Some r);
        while Option.is_none !report && Clock.step lp.clock do
          ()
        done)
  in
  match !report with
  | Some r -> (r, (Clock.now lp.clock -. sim0) /. 1000.0, host)
  | None -> raise Stalled

(* Read back every block that holds an acknowledged write, 256 KiB at a
   time; returns (reads issued, reads failed or mismatched). *)
let verify_all lp =
  let chunk = 512 in
  let reads =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun c ->
            let block = c * chunk in
            let n = min chunk (v.size - block) in
            let acked = ref false in
            for b = block to block + n - 1 do
              if v.shadow.(b) <> zero_hash then acked := true
            done;
            if !acked then Some (Wl.Read { volume = v.vname; block; nblocks = n }) else None)
          (List.init ((v.size + chunk - 1) / chunk) Fun.id))
      lp.vol_list
  in
  let lp = make_loop lp.a lp.vol_list in
  let pending = ref reads in
  let next () =
    match !pending with
    | op :: rest ->
      pending := rest;
      op
    | [] -> assert false
  in
  run_ops lp next ~ops:(List.length reads);
  (List.length reads, lp.failed + lp.mismatched_ops)

(* ---------- metrics ---------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let int_of d key = match Registry.find d key with Some (Registry.Int n) -> n | _ -> 0

let hist_of d key =
  match Registry.find d key with
  | Some (Registry.Hist h) -> h
  | _ ->
    {
      Registry.h_count = 0; h_sum = 0.0; h_mean = 0.0; h_max = 0.0; h_p50 = 0.0;
      h_p90 = 0.0; h_p99 = 0.0; h_p999 = 0.0; h_buckets = [];
    }

(* Sum of a per-drive counter over the shelf. *)
let drives_sum d leaf =
  List.fold_left (fun acc i -> acc + int_of d (Printf.sprintf "ssd/drive%d/%s" i leaf)) 0
    (List.init config.Fa.drives Fun.id)

(* [exact]: the value is a function of the seed alone (simulated time or
   a count), so two runs with one seed must print it identically. *)
type metric = { mname : string; value : float; unit_ : string; exact : bool; note : string }

let m ?(note = "") mname unit_ value = { mname; value; unit_; exact = false; note }
let x ?note mname unit_ value = { (m ?note mname unit_ value) with exact = true }

let end_to_end ~setup_s (p : phase) ~reads ~writes ~acked_bytes ~failover_ms ~peak_heap_mb =
  let fops = float_of_int p.ops in
  let rn = reads.n and wn = writes.n in
  [
    m "host_ops_per_s" "1/s" (median p.window_rates)
      ~note:(Printf.sprintf "median of %d windows; whole phase %.1f" (List.length p.window_rates)
               (fops /. p.host_s));
    m "alloc_bytes_per_op" "B" (p.alloc_words *. 8.0 /. fops);
    m "peak_heap_mb" "MiB" peak_heap_mb;
    m "setup_s" "s" setup_s;
    x "sim_iops" "1/s" (fops /. (p.sim_us /. 1e6));
    x "sim_read_mean_us" "us" (mean_of reads) ~note:(Printf.sprintf "n=%d p50=%.3f" rn (percentile reads 50.0));
    (* reads: the slowest 5%, i.e. the flash reads behind >90% DRAM hits on
       oltp-hot and vdi-ingest; the slowest 1% is only ~28 reads on
       mix-cold-gc and swings 12% between seeds *)
    x "sim_read_slowest5pct_us" "us" (tail_mean ~pct:5 reads)
      ~note:(Printf.sprintf "n=%d p95=%.3f p99=%.3f" rn (percentile reads 95.0)
               (percentile reads 99.0));
    x "sim_write_mean_us" "us" (mean_of writes)
      ~note:(Printf.sprintf "n=%d p50=%.3f" wn (percentile writes 50.0));
    (* writes: the slowest 1%, where NVRAM back-pressure episodes land *)
    x "sim_write_slowest1pct_us" "us" (tail_mean ~pct:1 writes)
      ~note:(Printf.sprintf "n=%d p99=%.3f" wn (percentile writes 99.0));
    x "data_reduction" "x" p.data_reduction;
    x "flash_write_amp" "x"
      (iratio (drives_sum p.diff "bytes_written") acked_bytes);
    x "failover_sim_ms" "ms" failover_ms;
  ]

(* Host cost per op in the second half of the windows over the first half. *)
let late_early_ratio (p : phase) =
  let n = List.length p.window_rates in
  let cost = List.map (fun r -> 1.0 /. r) p.window_rates in
  let sum l = List.fold_left ( +. ) 0.0 l in
  ratio (sum (List.filteri (fun i _ -> i >= n - (n / 2)) cost)) (sum (List.filteri (fun i _ -> i < n / 2) cost))

let per_layer (p : phase) lp ~untraced_s ~half_ratio ~recovery ~recovery_host_s =
  let fops = float_of_int p.ops in
  let kops = fops /. 1000.0 in
  let layer name =
    match List.find_opt (fun (l : Trace.layer) -> l.layer = name) p.layers with
    | Some l -> l
    | None -> { Trace.layer = name; self = 0.0; self_bytes = 0.0; calls = 0 }
  in
  let self name = (layer name).Trace.self in
  let per_call name f = let l = layer name in ratio (f l) (float_of_int l.Trace.calls) in
  let d = p.diff in
  let reads_n = int_of d "array/app_reads" and writes_n = int_of d "write_path/app_writes" in
  let logical = int_of d "write_path/logical_bytes" in
  let dedup_blocks = int_of d "dedup/inline_blocks" in
  let user_bytes = float_of_int (lp.read_bytes + lp.acked_bytes) in
  let dd1 = p.dd1 and dd0 = p.dd0 in
  let hash_hits = dd1.Dedup.hash_hits - dd0.Dedup.hash_hits in
  let probes = int_of d "pyramid/blocks_probes" in
  let io1 = p.io1 and io0 = p.io0 in
  let chunk_reads = io1.Io.chunk_reads - io0.Io.chunk_reads in
  let nvram = hist_of d "write_path/nvram_commit_us" in
  let gc_with_victims = List.filter (fun (r, _) -> r.Purity_core.Gc.victims <> []) lp.gc_reports in
  let relocated = List.fold_left (fun acc (r, _) -> acc + r.Purity_core.Gc.relocated_bytes) 0 lp.gc_reports in
  let reclaimed = List.fold_left (fun acc (r, _) -> acc + r.Purity_core.Gc.reclaimed_bytes) 0 lp.gc_reports in
  let mean xs = ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs)) in
  let kernel_metrics =
    List.concat_map
      (fun (k : Ks.kernel) ->
        let bytes = int_of d ("kernels/" ^ k.name ^ "_bytes") in
        [
          m ("kernels." ^ k.name ^ ".us_per_op") "us" (self ("kernels." ^ k.name) *. 1e6 /. fops);
          x ("kernels." ^ k.name ^ ".bytes_per_user_byte") "B/B" (ratio (float_of_int bytes) user_bytes);
        ])
      Ks.all
  in
  [
    m "front.read_call_us" "us" (per_call "front.read" (fun l -> l.Trace.self *. 1e6));
    m "front.write_call_us" "us" (per_call "front.write" (fun l -> l.Trace.self *. 1e6));
    m "front.read_alloc_b" "B" (per_call "front.read" (fun l -> l.Trace.self_bytes));
    m "front.write_alloc_b" "B" (per_call "front.write" (fun l -> l.Trace.self_bytes));
    m "sim.drain_self_us_per_op" "us" (self "sim.drain" *. 1e6 /. fops);
    x "sim.events_per_op" "count" (float_of_int lp.events /. fops);
    m "sim.drain_alloc_b_per_op" "B" ((layer "sim.drain").Trace.self_bytes /. fops);
  ]
  @ kernel_metrics
  @ [
      x "dedup.lookups_per_write" "count" (iratio (dd1.Dedup.lookups - dd0.Dedup.lookups) writes_n);
      x "dedup.verified_per_hash_hit" "ratio"
        (iratio (dd1.Dedup.verified_hits - dd0.Dedup.verified_hits) hash_hits);
      x "dedup.false_positive_rate" "ratio"
        (iratio (dd1.Dedup.false_positives - dd0.Dedup.false_positives) hash_hits);
      x "dedup.dup_block_frac" "ratio" (iratio dedup_blocks (logical / 512));
      x "compress.stored_per_fresh_byte" "B/B"
        (iratio (int_of d "write_path/stored_bytes") (logical - (dedup_blocks * 512)));
      x "read_cache.hit_rate" "ratio"
        (iratio (int_of d "read_path/cache_hits")
           (int_of d "read_path/cache_hits" + int_of d "read_path/cache_misses"));
      x "map_cache.hit_rate" "ratio"
        (iratio (int_of d "read_path/map_cache_hits")
           (int_of d "read_path/map_cache_hits" + int_of d "read_path/map_cache_misses"));
      x "pyramid.probes_per_read" "count" (iratio probes reads_n);
      x "pyramid.fence_skip_frac" "ratio" (iratio (int_of d "pyramid/blocks_fence_skips") probes);
      x "pyramid.bloom_skip_frac" "ratio" (iratio (int_of d "pyramid/blocks_bloom_skips") probes);
      x "pyramid.patches" "count"
        (float_of_int (Purity_pyramid.Pyramid.patch_count (Fa.state lp.a).Purity_core.State.blocks));
      x "sched.read_amplification" "ratio"
        (iratio
           (io1.Io.direct_reads - io0.Io.direct_reads + io1.Io.peer_reads - io0.Io.peer_reads)
           chunk_reads);
      x "sched.reconstruct_frac" "ratio"
        (iratio (io1.Io.reconstruct_reads - io0.Io.reconstruct_reads) chunk_reads);
      x "sched.segment_read_p99_us" "us" (hist_of d "sched/segment_read_us").Registry.h_p99;
      x "nvram.commit_p50_us" "us" nvram.Registry.h_p50;
      x "nvram.commit_p99_us" "us" nvram.Registry.h_p99;
      x "nvram.backpressure_errors" "count" (float_of_int lp.backpressure);
      x "ssd.program_stalls_per_kop" "count" (float_of_int (drives_sum d "program_stalls") /. kops);
      x "ssd.bytes_written_per_user_byte" "B/B"
        (iratio (drives_sum d "bytes_written") lp.acked_bytes);
      x "segment.sealed_per_kop" "count" (float_of_int (int_of d "segments/next_id") /. kops);
      x "gc.passes" "count" (float_of_int (List.length gc_with_victims));
      m "gc.host_ms_per_pass" "ms" (mean lp.gc_host *. 1e3);
      x "gc.sim_ms_per_pass" "ms" (mean (List.map snd lp.gc_reports) /. 1e3);
      x "gc.relocated_per_reclaimed" "B/B" (iratio relocated reclaimed);
      m "checkpoint.host_ms" "ms" (mean lp.ckpt_host *. 1e3);
      x "checkpoint.sim_ms" "ms" (mean lp.ckpt_sim /. 1e3);
      m "recovery.host_ms" "ms" (recovery_host_s *. 1e3);
      x "recovery.headers_scanned" "count"
        (float_of_int recovery.Purity_core.Recovery.headers_scanned);
      x "recovery.log_records" "count" (float_of_int recovery.Purity_core.Recovery.log_records);
      m "ocaml_gc.minor_per_kop" "count" (float_of_int p.minor_gcs /. kops);
      m "ocaml_gc.major_per_kop" "count" (float_of_int p.major_gcs /. kops);
      m "ocaml_gc.promoted_b_per_op" "B" (p.promoted_words *. 8.0 /. fops);
      m "host.late_early_ratio" "ratio" half_ratio;
      m "trace.overhead_frac" "ratio" ((p.host_s /. untraced_s) -. 1.0);
      m "trace.self_sum_frac" "ratio"
        (ratio (List.fold_left (fun acc (l : Trace.layer) -> acc +. l.self) 0.0 p.layers) p.root_s);
    ]

(* ---------- output ---------- *)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun mt ->
      Printf.printf "  metric %-36s %18.6f %-6s %-5s %s\n" mt.mname mt.value mt.unit_
        (if mt.exact then "exact" else "host") mt.note)
    ms

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_result ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.mname (json_number mt.value)
              mt.unit_)
          ms))

let print_config spec ~seed ~seconds ~ops ~nproc ~trace ~size =
  let c = config in
  let d = c.Fa.drive_config in
  Printf.printf "perfbench workload=%s seed=%Ld seconds=%d trace=%d size=%s\n" spec.name seed
    seconds trace size;
  Printf.printf "run length: %d measured ops, %d warm-up ops, %d outstanding\n" ops
    spec.warmup_ops concurrency;
  Printf.printf "host: ocaml %s, nproc %d, 1 domain (PURITY_DOMAINS ignored)\n"
    Sys.ocaml_version nproc;
  Printf.printf
    "config: Flash_array.default_config: drives=%d au_size=%d num_aus=%d k=%d m=%d \
     write_unit=%d nvram=%d memtable_flush=%d read_cache=%d map_cache=%d dedup=%b \
     compression=%b read_around_write=%b\n"
    c.Fa.drives d.Purity_ssd.Drive.au_size d.Purity_ssd.Drive.num_aus c.Fa.k c.Fa.m
    c.Fa.write_unit c.Fa.nvram_capacity c.Fa.memtable_flush c.Fa.read_cache_entries
    c.Fa.map_cache_entries c.Fa.inline_dedup c.Fa.compression c.Fa.read_around_write;
  Printf.printf "volumes: %s\n%!"
    (String.concat " " (List.map (fun (n, b) -> Printf.sprintf "%s=%dMiB" n (b / mib)) spec.volumes))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The simulated results of one phase, which must repeat exactly. *)
let sim_signature lp (p : phase) =
  Printf.sprintf "ops=%d sim_us=%.3f r50=%.3f r99=%.3f w50=%.3f w99=%.3f events=%d" p.ops p.sim_us
    (percentile lp.reads 50.0) (percentile lp.reads 99.0) (percentile lp.writes 50.0)
    (percentile lp.writes 99.0) lp.events

let print_latency name s =
  Printf.printf "sim %s latency (us): n=%d mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f p99.9=%.3f\n"
    name s.n (mean_of s) (percentile s 50.0) (percentile s 90.0) (percentile s 95.0)
    (percentile s 99.0) (percentile s 99.9)

let phase_errors armed =
  let lp = armed.lp in
  print_latency "read" lp.reads;
  print_latency "write" lp.writes;
  if armed.setup_bad > 0 then
    Printf.printf "set-up: %d failed ops or mismatched reads\n" armed.setup_bad;
  Printf.printf
    "checks: %d blocks checked, %d skipped (newer write landed mid-read), %d failed ops, %d \
     mismatched reads, %d back-pressure retries\n"
    lp.checked_blocks lp.skipped_blocks lp.failed lp.mismatched_ops lp.backpressure;
  armed.setup_bad + lp.failed + lp.mismatched_ops

let print_maintenance lp =
  if lp.gc_reports <> [] || lp.ckpt_sim <> [] then
    Printf.printf "maintenance: %d checkpoints; gc passes (victims, relocated KiB, reclaimed KiB): %s\n"
      (List.length lp.ckpt_sim)
      (String.concat " "
         (List.rev_map
            (fun ((r : Purity_core.Gc.report), _) ->
              Printf.sprintf "(%d,%d,%d)" (List.length r.victims) (r.relocated_bytes / 1024)
                (r.reclaimed_bytes / 1024))
            lp.gc_reports))

let setup_timed spec ~seed =
  Gc.compact ();
  let h0 = Hclock.cpu_s () in
  let armed = setup spec ~seed in
  (armed, Hclock.cpu_s () -. h0)

let run_untraced spec ~seed ~ops =
  (* set up three times; the median is setup_s, the last array is measured *)
  let times = ref [] and last = ref None and setup_bad = ref 0 in
  for _ = 1 to 3 do
    last := None;
    let armed, s = setup_timed spec ~seed in
    times := s :: !times;
    setup_bad := !setup_bad + armed.setup_bad;
    last := Some armed
  done;
  let armed = { (Option.get !last) with setup_bad = !setup_bad } in
  let setup_s = median !times in
  Printf.printf "setup: %s s (median %.3f)\n%!"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times))
    setup_s;
  let p = measure spec armed ~ops in
  let lp = armed.lp in
  Printf.printf "phase: %s\n" (sim_signature lp p);
  let phase_bad = phase_errors armed in
  let reads = lp.reads and writes = lp.writes and acked_bytes = lp.acked_bytes in
  let report, failover_ms, _ = failover lp in
  Printf.printf "failover: %.3f sim ms, %d headers scanned, %d log records\n" failover_ms
    report.Purity_core.Recovery.headers_scanned report.Purity_core.Recovery.log_records;
  print_maintenance lp;
  let reread, post_bad = verify_all lp in
  Printf.printf "post-failover: %d reads of every acknowledged block, %d bad\n" reread post_bad;
  let ms =
    end_to_end ~setup_s p ~reads ~writes ~acked_bytes ~failover_ms
      ~peak_heap_mb:(peak_heap_mb ())
  in
  (ms, phase_bad + post_bad)

let run_traced spec ~seed ~ops ~spans_path =
  let armed, _ = setup_timed spec ~seed in
  let pu = measure spec armed ~ops in
  let sig_u = sim_signature armed.lp pu in
  let bad_u = phase_errors armed in
  let armed, _ = setup_timed spec ~seed in
  let lp = armed.lp in
  let tracer = Trace.create lp.clock in
  Ks.set_clock (Some Hclock.cpu_ns);
  let p = measure ~tracer spec armed ~ops in
  let sig_t = sim_signature lp p in
  let bad_t = phase_errors armed in
  Printf.printf "phase (untraced): %s\nphase (traced):   %s\n" sig_u sig_t;
  let sim_same = String.equal sig_u sig_t in
  if not sim_same then Printf.printf "ERROR: tracing changed the simulated run\n";
  lp.tracer <- Some tracer;
  let report, failover_ms, recovery_host_s = failover lp in
  lp.tracer <- None;
  Ks.set_clock None;
  Printf.printf "failover: %.3f sim ms\n" failover_ms;
  let ms =
    per_layer p lp ~untraced_s:pu.host_s ~half_ratio:(late_early_ratio pu) ~recovery:report
      ~recovery_host_s
  in
  let reread, post_bad = verify_all lp in
  Printf.printf "post-failover: %d reads of every acknowledged block, %d bad\n" reread post_bad;
  Printf.printf "self time by layer (traced phase, host CPU %.3f s; untraced %.3f s; overhead %+.1f%%):\n"
    p.root_s pu.host_s ((p.host_s /. pu.host_s -. 1.0) *. 100.0);
  List.iter
    (fun (l : Trace.layer) ->
      Printf.printf "  self %-26s %10.3f s %9.2f us/op %6.2f%%  calls=%d alloc=%.0f B\n" l.layer
        l.self (l.self *. 1e6 /. float_of_int ops) (100.0 *. l.self /. p.root_s) l.calls
        l.self_bytes)
    p.layers;
  Trace.write_jsonl tracer spans_path;
  Printf.printf "spans: %d written to %s\n" tracer.Trace.count spans_path;
  (ms, bad_u + bad_t + post_bad + if sim_same then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let size = ref "full" and nproc = ref 0 and spans_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME oltp-hot | mix-cold-gc | vdi-ingest");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length: ops_per_second(workload) * S ops");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--size", Arg.Set_string size, "full|tiny tiny shrinks volumes for the self-test");
      ("--nproc", Arg.Set_int nproc, "N processor count to report");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where the traced run writes its spans");
      ("--gc-concurrent", Arg.Set gc_concurrent, " keep clients running during GC passes");
    ]
    (fun a -> raise (Arg.Bad a))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) workloads with
    | Some s -> s
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let tiny = !size = "tiny" in
  let spec = if tiny then shrink spec else spec in
  let ops = max 100 (spec.ops_per_second * !seconds / if tiny then 5 else 1) in
  let seed64 = Int64.of_int !seed in
  (* pin the measured program: one domain, unclocked kernel counters *)
  Purity_par.Pool.set_global_domains 1;
  Ks.set_clock None;
  Ks.reset ();
  print_config spec ~seed:seed64 ~seconds:!seconds ~ops ~nproc:!nproc ~trace:!trace ~size:!size;
  let ms, bad =
    if !trace = 0 then run_untraced spec ~seed:seed64 ~ops
    else
      run_traced spec ~seed:seed64 ~ops
        ~spans_path:
          (Filename.concat !spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" spec.name !seed))
  in
  let attempted = if !trace = 0 then ops else 2 * ops in
  (* error_rate is printed but is no declared metric: it is 0 on a correct
     run, and a failed check already makes the run fail *)
  print_metrics
    (if !trace = 0 then "end-to-end metrics:" else "per-layer metrics:")
    (ms @ [ x "error_rate" "ratio" (iratio bad attempted) ]);
  print_endline (json_result ~correct:(bad = 0) ~attempted ~failed:bad ms);
  exit (if bad = 0 then 0 else 1)
