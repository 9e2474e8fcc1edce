(** Metrics registry: the array's single namespace of counters, gauges and
    latency histograms.

    The paper's evaluation is built on fleet telemetry phoned home from
    deployed arrays (§1, §5); this registry is the reproduction's
    equivalent of the per-array metric table those logs sample. Every
    subsystem registers its counters under a hierarchical slash-separated
    key ([write_path/nvram_commit_us], [ssd/drive3/program_stalls], ...)
    and records through the handle it got back — an [Atomic.t] cell, so
    hot-path recording is one uncontended atomic store and pool worker
    domains can record without racing the main domain (registration and
    snapshots remain main-domain-only: the key table is not synchronised).

    Three metric families are recorded directly:
    - {e counters}: monotone ints ([incr]/[add]);
    - {e gauges}: level-valued floats ([set]);
    - {e histograms}: {!Purity_util.Histogram} latency distributions.

    Two more are {e derived}: registered as closures and sampled only at
    {!snapshot} time, so pre-existing statistics structs (drive stats, IO
    scheduler stats, medium-table sizes) can join the namespace without
    rewriting their recording sites.

    Registration is idempotent per key: re-registering the same key with
    the same family returns the original handle; a family mismatch raises
    [Invalid_argument] (two subsystems fighting over one name is a bug
    worth failing loudly on). *)

type t
type counter
type gauge

val create : unit -> t

(** {1 Registration} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : t -> string -> Purity_util.Histogram.t
(** A registry-owned histogram; record into it directly with
    {!Purity_util.Histogram.record}. *)

val attach_histogram : t -> string -> Purity_util.Histogram.t -> unit
(** Adopt an existing histogram under a key (zero-copy: snapshots read the
    live histogram). Re-attaching the same instance is a no-op; attaching
    a different instance to an occupied key raises. *)

val derive_int : t -> string -> (unit -> int) -> unit
(** A computed counter, sampled at snapshot time. Re-registration
    replaces the closure (a failover re-derives over fresh state). *)

val derive_float : t -> string -> (unit -> float) -> unit
(** A computed gauge, sampled at snapshot time. *)

(** {1 Hot-path recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val get : gauge -> float

(** {1 Introspection} *)

val mem : t -> string -> bool
val keys : t -> string list
(** All registered keys, sorted. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_p999 : float;
  h_buckets : (float * int) list;  (** occupied (upper bound, count) *)
}

type value_snapshot = Int of int | Float of float | Hist of hist_snapshot

type snapshot = (string * value_snapshot) list
(** Key-sorted point-in-time sample. Counters and derived-int metrics
    appear as [Int], gauges and derived-float as [Float]. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value_snapshot option

val filter_prefix : snapshot -> prefix:string -> snapshot
(** Entries whose key is [prefix] or starts with [prefix ^ "/"]. *)

val diff : base:snapshot -> current:snapshot -> snapshot
(** Activity between two snapshots of the same registry: counters and
    histogram buckets subtract (percentiles are recomputed over the
    interval's samples); gauges are levels, so the current value is kept.
    Keys absent from [base] pass through unchanged. *)

val reset : t -> unit
(** Zero all counters and clear all histograms. Gauges and derived
    metrics are levels over live state and are left alone. *)

val pp_snapshot : snapshot Fmt.t
(** Grouped, aligned rendering for the CLI's [stats] subcommand. *)
