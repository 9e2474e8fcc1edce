(** Segment read scheduler (paper §4.4).

    Purity schedules reads to dodge the SSD latency spikes caused by
    in-flight programs and erases:

    - {e read-around-write}: a drive that is currently writing is treated
      "as though it has failed" — the requested chunk is rebuilt from the
      other shards of its row instead of waiting out the program;
    - {e degraded reads}: chunks on offline or corrupted drives are
      rebuilt the same way (this is also how the array serves I/O through
      two drive failures);
    - {e p95 backup reads}: optionally, a direct read that exceeds the
      observed 95th-percentile latency triggers a parallel reconstruction,
      and whichever finishes first wins ("the tail at scale" hedge).

    Reconstruction reads [k] sibling shards, so a worst-case write-heavy
    workload pays ≈ [7 × 2/11 ≈ 1.3×] extra reads — the paper's cost
    bound, measurable from {!stats}. *)

type t

type stats = {
  chunk_reads : int;  (** chunks requested by callers *)
  direct_reads : int;  (** served by reading the home shard *)
  reconstruct_reads : int;  (** served by rebuilding from siblings *)
  backup_reads : int;  (** p95 hedges launched *)
  peer_reads : int;  (** total sibling-shard reads issued *)
  failures : int;  (** chunks that could not be served at all *)
}

val create :
  layout:Purity_segment.Layout.t ->
  shelf:Purity_ssd.Shelf.t ->
  rs:Purity_erasure.Reed_solomon.t ->
  ?read_around_write:bool ->
  ?p95_backup:bool ->
  unit ->
  t
(** [read_around_write] defaults to true (disable for the E6 ablation);
    [p95_backup] defaults to false. *)

val read :
  t ->
  Purity_segment.Segment.t ->
  off:int ->
  len:int ->
  ((bytes, [ `Unrecoverable ]) result -> unit) ->
  unit
(** Read a payload byte range of a segment. Splits into write-unit chunks,
    serves each by the cheapest safe path, reassembles. [`Unrecoverable]
    only when more than [m] shards of some row are unavailable. *)

val stats : t -> stats
val reset_stats : t -> unit

val set_fault : t -> (drive:int -> bool) option -> unit
(** Install (or clear) a fault predicate over shelf drive ids. A faulted
    drive's shards are treated as unreadable — direct reads degrade to
    reconstruction and the drive is excluded as a reconstruction peer —
    without touching the drive's own online state. The [purity.check]
    injection point for targeted degraded-read scenarios. *)

val register_telemetry : t -> Purity_telemetry.Registry.t -> unit
(** Register the scheduler's counters (derived), the computed read
    amplification, and its latency histograms under [sched/...]. *)
