(** Pyramids: Purity's log-structured merge trees (paper §4.8, §4.10).

    A pyramid indexes one relation. Insertions go to a mutable memtable;
    {!flush} freezes it into a {!Patch.t}; {!merge_step} combines patches
    with contiguous sequence ranges; {!flatten} compacts everything to a
    single bottom patch. Merge and flatten are idempotent and always safe,
    mirroring the paper's lock-free maintenance claim (re-running either
    never changes the result).

    Deletion policy is chosen at creation time:

    - {e Elision} (Purity's novel mechanism): the pyramid carries an elide
      table of dense integer ids plus a rule mapping each fact to its id.
      Inserting an id (or range) into the elide table atomically retracts
      every matching fact, present and — because ids are never reused —
      harmless against future ones. Readers filter against the table;
      merges drop elided facts immediately, reclaiming space without
      waiting for a retraction to sink through the levels.

    - {e Tombstones} (the baseline the paper compares against): deletes
      insert per-key tombstone facts that shadow older values and are only
      discarded when a flatten reaches the bottom level.

    Reads are snapshot-consistent: passing [~snapshot:s] observes exactly
    the facts (and elide entries) with sequence number <= s. *)

type policy =
  | Elide of (Fact.t -> int)
      (** Rule mapping a fact to its elide-table id. The motivating example
          (mediums): key encodes [(medium, offset)], rule extracts
          [medium], and dropping a medium is one elide-range insert. *)
  | Tombstones

type t

val create : ?memtable_flush_count:int -> policy:policy -> name:string -> unit -> t
(** [memtable_flush_count] (default 1024) bounds the memtable before
    {!insert} auto-flushes. *)

val name : t -> string
val policy_is_elision : t -> bool

(** {1 Writes — monotone fact insertion} *)

val insert : t -> seq:int64 -> key:string -> value:string -> unit
val insert_fact : t -> Fact.t -> unit
(** Idempotent: re-inserting an already-present (key, seq) fact is a
    no-op after the next merge. Used verbatim by recovery replay. *)

val delete : t -> seq:int64 -> key:string -> unit
(** Tombstone-policy deletion.
    @raise Invalid_argument under the elision policy. *)

val elide_id : t -> seq:int64 -> int -> unit
val elide_range : t -> seq:int64 -> lo:int -> hi:int -> unit
(** Atomically retract every fact whose rule id falls in the range —
    "atomic predicate-based tuple elision".
    @raise Invalid_argument under the tombstone policy. *)

(** {1 Reads} *)

val find : ?snapshot:int64 -> t -> string -> string option
(** Latest live value for a key: tombstoned and elided facts read as
    absent. Patches whose key fence or bloom filter excludes the key are
    skipped without a search. *)

val find_naive : ?snapshot:int64 -> t -> string -> string option
(** Reference implementation of {!find} that probes every patch with the
    list-building [Patch.find]. Exists so tests and the metadata
    micro-benchmark can compare the fenced fast path against it; results
    are always identical. *)

val find_run :
  ?snapshot:int64 -> t -> n:int -> key_of:(int -> string) -> index:(string -> int) ->
  Fact.t option array
(** Batched lookup for [n] consecutive keys: one lower_bound then a
    sequential walk per patch instead of [n] independent searches.
    [key_of i] is slot [i]'s key (ascending in [i]); [index] maps a
    stored key back to its slot (anything outside [0, n) is ignored).
    Returns the latest in-snapshot fact per slot with retractions NOT
    applied — pass each slot through {!resolve_fact} if liveness
    matters. *)

val resolve_fact : ?snapshot:int64 -> t -> Fact.t option -> string option
(** Apply tombstone/elide filtering to a looked-up fact (e.g. a
    {!find_run} slot), yielding its live value. *)

val find_ignoring_retractions : ?snapshot:int64 -> t -> string -> string option
(** The paper's relaxed consistency mode: "readers are allowed to run in a
    relaxed consistency mode that simply ignores retractions, allowing
    them to observe tuples that no longer exist." *)

val iter_live : ?snapshot:int64 -> t -> (key:string -> value:string -> unit) -> unit
(** Visit each key's latest live value, in key order. *)

val range : ?snapshot:int64 -> t -> lo:string -> hi:string -> (string * string) list
(** Live (key, value) pairs with [lo <= key <= hi]. *)

val exists_live_in_range : ?snapshot:int64 -> t -> lo:string -> hi:string -> bool
(** Does any key in [lo, hi] resolve to a live value? Equivalent to
    [range t ~lo ~hi <> []] but walks only the facts inside each
    overlapping patch's fence instead of merging the whole pyramid. *)

val has_newer : t -> string -> than:int64 -> bool
(** Is any fact for the key newer than [than]? Consults only the memtable
    and patches whose newest fact is; tells maintenance whether a mapping
    it read earlier has since been superseded. *)

(** {1 Maintenance} *)

val flush : t -> unit
(** Freeze the memtable into a new top patch (no-op when empty), then run
    size-tiered maintenance: shallow patches of similar size merge, so the
    patch count stays logarithmic in the number of flushes. *)

val merge_step : t -> bool
(** Merge the two shallowest adjacent patches; false if fewer than two
    patches exist. Elided facts encountered are dropped immediately. *)

val flatten : t -> unit
(** Full compaction to a single bottom patch: superseded facts, elided
    facts, and (tombstone policy) the tombstones themselves are dropped. *)

(** {1 Introspection & persistence} *)

val patch_count : t -> int
val fact_count : t -> int
(** Stored facts across memtable and patches, including shadowed ones. *)

val live_key_count : t -> int
val memtable_size : t -> int
val elide_table : t -> Purity_encoding.Ranges.t
val elide_range_count : t -> int
val max_seq : t -> int64
(** Highest sequence number stored (0 when empty). *)

val patches : t -> Patch.t list
(** Shallowest first; for the segment writer to persist. *)

val probe_stats : t -> int * int * int
(** [(probes, fence_skips, bloom_skips)] since creation: patch consults
    attempted by the lookup paths, and how many were rejected by the key
    fence or the bloom filter without a search. *)

val replace_patches : t -> Patch.t list -> unit
(** Install persisted patches at recovery (shallowest first). *)

val restore_elides : t -> Purity_encoding.Ranges.t -> unit
(** Recovery: re-install a checkpointed elide table. Restored entries are
    visible to every snapshot (sequence 0 — elide ids are never reused, so
    this is always safe). @raise Invalid_argument on tombstone tables. *)
