(** Asynchronous off-site replication.

    The paper's arrays ship with "network replication ports" and sustain
    full throughput "while providing asynchronous off-site replication"
    (§1); replication is snapshot-based, riding the medium machinery:
    protected volumes are snapshotted on a cadence, and only the blocks
    that differ between consecutive replication snapshots cross the wire.

    This module links two {!Purity_core.Flash_array.t}s (on the same
    simulation clock) with a bandwidth/latency-modelled WAN and
    implements that cycle:

    - cycle n takes snapshot [volume@repl-n] on the source;
    - the delta between [repl-(n-1)] and [repl-n] is computed from the
      block index (no full-volume scan), read on the source, shipped,
      and written to the target volume;
    - the target takes its own [volume@repl-n] snapshot once the delta
      is fully applied, so it always holds a crash-consistent image even
      if the link dies mid-transfer;
    - the previous source snapshot is dropped (one elide, as always).

    Deduplication note: the wire format ships logical bytes; the target
    array re-deduplicates and re-compresses on ingest, as the real
    system does. *)

(** Delta machinery shared between this asynchronous replicator and the
    synchronous ActiveCluster layer ({!Purity_activecluster}): reducing
    "what must cross the wire" to sorted block lists and consecutive
    runs. *)
module Delta : sig
  val snap_medium : Purity_core.State.t -> string -> int option
  (** The frozen medium a snapshot handle references. *)

  val mediums_between :
    Purity_core.State.t -> from_medium:int -> until:int option -> int list
  (** Successor-chain walk from [from_medium] (inclusive) down to [until]
      (exclusive): the mediums that accumulated writes between two
      replication snapshots. *)

  val changed_blocks : Purity_core.State.t -> int list -> int list
  (** Sorted blocks with live facts in any of the given mediums, read off
      the block index (no full-volume scan). *)

  val live_blocks : Purity_core.State.t -> medium:int -> blocks:int -> int list
  (** Sorted blocks the medium resolves anywhere in its chain — the
      initial-sync block list, via one batched range resolution. *)

  val runs_of : int list -> max_run:int -> (int * int) list
  (** Group a sorted block list into [(start, len)] runs of consecutive
      addresses, each at most [max_run] long. *)
end

type link = {
  mb_s : float;  (** WAN bandwidth *)
  rtt_us : float;  (** per-transfer round-trip overhead *)
}

val default_link : link
(** 100 MB/s, 20 ms RTT. *)

type t

val create :
  ?link:link ->
  source:Purity_core.Flash_array.t ->
  target:Purity_core.Flash_array.t ->
  unit ->
  t
(** Both arrays must share one simulation clock.
    @raise Invalid_argument otherwise. *)

val protect : t -> string -> (unit, [ `No_such_volume | `Already ]) result
(** Start protecting a source volume. The target volume (same name) is
    created on first cycle if absent. *)

val unprotect : t -> string -> unit

type cycle_report = {
  volume : string;
  cycle : int;
  changed_blocks : int;
  shipped_bytes : int;  (** logical bytes over the wire *)
  duration_us : float;
  rpo_snapshot : string;  (** the consistent image now held by the target *)
}

val replicate_once : t -> string -> (cycle_report -> unit) -> unit
(** Run one replication cycle for a protected volume. Concurrent cycles
    for the same volume are rejected with an exception (the scheduler
    below never does that). *)

val replicate_all : t -> (cycle_report list -> unit) -> unit
(** One cycle for every protected volume, sequentially. *)

type stats = {
  cycles : int;
  total_shipped_bytes : int;
  total_changed_blocks : int;
}

val stats : t -> stats
