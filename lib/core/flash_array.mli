(** The Purity array: the public API of this reproduction.

    One [Flash_array.t] is a simulated Pure Storage appliance: a shelf of
    flash drives plus NVRAM behind a controller running the Purity
    storage engine — log-structured segments with 7+2 Reed–Solomon
    striping, pyramids (LSM trees) with predicate elision for all
    metadata, mediums for snapshots/clones, inline compression and
    deduplication, frontier-set crash recovery, and controller failover.

    All I/O is asynchronous against the shared simulation clock: calls
    take a continuation that fires at the operation's simulated
    completion time. Drive the clock with {!Purity_sim.Clock.run} (or
    [run_until]) to make progress.

    {2 Quickstart}

    {[
      let clock = Purity_sim.Clock.create () in
      let array = Flash_array.create ~clock () in
      Flash_array.create_volume array "db" ~blocks:4096 |> Result.get_ok;
      Flash_array.write array ~volume:"db" ~block:0 data (fun _ -> ());
      Flash_array.read array ~volume:"db" ~block:0 ~nblocks:8 (fun r -> ...);
      Purity_sim.Clock.run clock
    ]} *)

type t

type config = State.config = {
  drives : int;  (** shelf width (paper: 11–24) *)
  drive_config : Purity_ssd.Drive.config;
  k : int;  (** Reed–Solomon data shards (paper: 7) *)
  m : int;  (** parity shards (paper: 2) *)
  write_unit : int;
  nvram_capacity : int;
  memtable_flush : int;
  read_around_write : bool;  (** §4.4 scheduling (E6 ablation switch) *)
  p95_backup : bool;  (** hedged reads at the observed p95 *)
  inline_dedup : bool;
  compression : bool;
  dedup_config : Purity_dedup.Dedup.config;
  read_cache_entries : int;
      (** decoded, CRC-verified cblocks cached in controller DRAM, up to
          32 KiB each (128 MiB at the default 4096); 0 disables *)
  map_cache_entries : int;
      (** logical->blockref mapping-cache slots (0 disables) *)
  secondary_warming : bool;
      (** §4.3: the primary warms the spare's cache, so failover starts
          warm (E14 ablation switch) *)
  seed : int64;
}

val default_config : config
(** 11 drives of ~64 MiB (128 AUs of 516 KiB), 7+2, 32 KiB write units —
    a laptop-scale array preserving the paper's geometry ratios. *)

val create : ?config:config -> clock:Purity_sim.Clock.t -> unit -> t

val block_size : int
(** 512 bytes — the paper's minimum unit of I/O, dedup and compression. *)

(** {1 Volumes and snapshots}

    Volumes and snapshots share one namespace. Snapshots are read-only.
    All sizes and addresses are in 512-byte blocks. *)

type vol_error = [ `Exists | `No_such_volume | `Busy | `Is_snapshot | `Is_volume ]

val create_volume : t -> string -> blocks:int -> (unit, vol_error) result
val delete_volume : t -> string -> (unit, vol_error) result
(** Deletes the volume and elides every medium that becomes unreferenced —
    a handful of elide-table inserts, not a per-block walk (§4.10). *)

val resize_volume : t -> string -> blocks:int -> (unit, [ vol_error | `Shrink ]) result
(** Grow only. *)

val snapshot : t -> volume:string -> snap:string -> (unit, vol_error) result
(** O(1): freezes the volume's medium and redirects new writes to a fresh
    successor medium (§4.5). *)

val clone : t -> snapshot:string -> volume:string -> (unit, vol_error) result
(** Writable clone of a snapshot; shares all unmodified data. *)

val delete_snapshot : t -> string -> (unit, vol_error) result

val list_volumes : t -> (string * [ `Volume | `Snapshot ] * int) list
(** (name, kind, size in blocks), sorted by name. *)

val volume_exists : t -> string -> bool

val inferred_io_blocks : t -> string -> int option
(** §4.6: the volume's observed dominant write size (in 512 B blocks),
    which the write path uses to size cblocks — "instead of having
    administrators guess optimal block sizes, Purity infers optimal
    transfer sizes by observing I/O requests". 64 (32 KiB) until enough
    writes have been observed. *)

(** {1 Data path} *)

type write_error = [ Write_path.error | `Fenced ]
type read_error = [ Read_path.error | `Fenced ]
(** [`Fenced]: the array has been fenced by the cluster layer (see
    {!fence}) and refuses host I/O at the front door. *)

val write :
  t -> volume:string -> block:int -> string -> ((unit, write_error) result -> unit) -> unit
(** Write data (length a positive multiple of 512) at a block address.
    The continuation fires when the write is durable (NVRAM commit). *)

val read :
  t ->
  volume:string ->
  block:int ->
  nblocks:int ->
  ((string, read_error) result -> unit) ->
  unit
(** Read blocks from a volume or snapshot; unwritten blocks are zeros. *)

val flush : t -> (unit -> unit) -> unit
(** Seal the open segio and wait for every in-flight segment flush —
    quiesce before maintenance or planned failover. *)

(** {1 Maintenance} *)

val checkpoint : t -> (Checkpoint.report -> unit) -> unit
(** Persist all pyramids and rewrite the boot region; shrinks the set of
    segments failover must scan. *)

val gc : ?min_dead_ratio:float -> ?max_victims:int -> t -> (Gc.report -> unit) -> unit
(** One garbage-collection pass: relocate live data out of the emptiest
    segments, flatten medium trees, compact pyramids, reclaim AUs. *)

val scrub : t -> (Scrub.report -> unit) -> unit
(** Proactive media scrub: read every member AU, relocate segments with
    corrupt pages (repairing via Reed–Solomon and refreshing retention). *)

(** {1 Faults and availability} *)

val pull_drive : t -> int -> unit
val reinsert_drive : t -> int -> unit
val replace_drive : t -> int -> unit

val rebuild_drive : t -> int -> (int -> unit) -> unit
(** Relocate every segment that had a member on the given (failed or
    replaced) drive, restoring full 7+2 redundancy; the callback receives
    the number of segments rebuilt. *)

val inject_page_corruption : t -> drive:int -> au:int -> page:int -> unit
(** Deterministic fault injection: mark one flash page latently corrupt,
    as if its charge had leaked (cleared when the AU is next erased). The
    hook behind [purity.check]'s corruption faults; scrub and degraded
    reads must repair around it. *)

val lose_nvram : t -> unit
(** Fault injection: the NVRAM device drops every pending record. Writes
    acked but not yet durable in flushed segments are the exposure — the
    reference model treats them as legitimately lost at the next crash. *)

val set_read_fault : t -> (drive:int -> bool) option -> unit
(** Install (or clear) a read-fault predicate on the segment scheduler:
    matching drives serve no shards, forcing degraded reads. Installed on
    the *current* controller — a failover boots the spare with no fault
    predicate, so re-install after {!failover} if still wanted. *)

val crash : t -> unit
(** Simulate controller loss: all volatile state is gone; the shelf
    (drives, NVRAM, boot region) survives. The array rejects I/O until
    {!failover} completes. *)

val failover : ?mode:Recovery.mode -> t -> (Recovery.report -> unit) -> unit
(** Bring up the (stateless) peer controller: run recovery over the shelf
    and resume service. Time from {!crash} to completion counts as
    downtime. Acked writes and all metadata survive. *)

val is_online : t -> bool

val fence : t -> unit
(** Cluster-level fencing (ActiveCluster §6-style split-brain
    resolution): refuse all host reads and writes with [`Fenced] until
    {!unfence}. The fence is a property of the appliance, not of a
    controller — it survives {!crash}/{!failover}. Maintenance (GC,
    scrub, rebuild, checkpoint, replication ingest driven internally)
    is unaffected. *)

val unfence : t -> unit
val is_fenced : t -> bool

(** {1 Statistics} *)

type stats = {
  app_writes : int;
  app_reads : int;
  logical_bytes_written : int;
  stored_bytes_written : int;  (** cblock frames after reduction *)
  live_logical_bytes : int;
  physical_bytes_used : int;  (** occupied AUs, parity included *)
  physical_capacity : int;
  data_reduction : float;  (** live logical / physical used (§1: 5.4×) *)
  provisioned_virtual_bytes : int;
  dedup_blocks : int;
  gc_dedup_blocks : int;
  write_latency : Purity_util.Histogram.t;
  read_latency : Purity_util.Histogram.t;
  io : Purity_sched.Io.stats;
  boot_region_writes : int;
  segments_live : int;
  availability : float;  (** uptime fraction since creation *)
  cache_hits : int;  (** controller-DRAM read cache *)
  cache_misses : int;
}

val stats : t -> stats
(** Point-in-time statistics. The counter-valued fields are read back
    from the {!telemetry} registry (the write/read paths record straight
    into it), so this record and a registry snapshot always agree. *)

(** {1 Telemetry} *)

val telemetry : t -> Purity_telemetry.Registry.t
(** The current controller's metric registry: every subsystem (write
    path, read path, GC, scrub, recovery, scheduler, drives, NVRAM)
    records here under hierarchical keys. Replaced on {!failover} — the
    spare boots with fresh path counters, while array-lifetime levels
    ([array/...]) are re-derived over the new state. *)

val tracer : t -> Purity_telemetry.Span.tracer
(** The span tracer: write/read/flush/GC/scrub/recovery hops land here.
    Also replaced on failover. *)

(** {1 Internals (benchmarks, tests)} *)

val clock : t -> Purity_sim.Clock.t
val shelf : t -> Purity_ssd.Shelf.t
val state : t -> State.t
(** The live internal state; benchmark harnesses use it to reach the
    pyramids and scheduler directly. Treat as read-only. *)
