(** Patches: the sorted immutable runs a pyramid is built from.

    Paper §4.8: "Patches are analogous to levels or components in other
    LSM-Tree implementations, and describe differences between the
    previous version of the pyramid and the new one. We track key ranges
    and sequence numbers for each patch."

    A patch is an immutable array of facts sorted by (key asc, seq desc).
    Duplicate (key, seq) facts collapse to one — re-inserting a fact is a
    no-op, the idempotence recovery relies on. *)

type t

val of_facts : Fact.t list -> t
(** Sort, deduplicate and freeze a batch of facts. *)

val empty : t
val count : t -> int
val is_empty : t -> bool

val seq_range : t -> (int64 * int64) option
(** Smallest and largest sequence number, [None] when empty. *)

val max_seq : t -> int64
(** Highest seq in the patch; [Int64.min_int] when empty. Cached at
    construction: the lookup path seq-fences whole patches with it. *)

val min_seq : t -> int64
(** Lowest seq in the patch; [Int64.max_int] when empty. *)

val key_range : t -> (string * string) option

val find : t -> string -> Fact.t list
(** All facts for a key, newest (highest seq) first. *)

val find_latest : t -> string -> Fact.t option

val find_latest_at : t -> string -> snapshot:int64 -> Fact.t option
(** Latest fact for a key with [seq <= snapshot]; allocation-free on the
    miss path (no intermediate list). *)

(** {2 Lookup fences}

    Cheap rejections consulted before any binary search: the key range
    comes from the sorted run's ends, and patches of at least 16 facts
    carry a bloom filter over their distinct keys. *)

val fence_admits : t -> string -> bool
(** Could [key] fall inside this patch's key range? *)

val fence_overlaps : t -> lo:string -> hi:string -> bool
(** Could any key in [lo, hi] fall inside this patch's key range? *)

val bloom_admits : t -> string -> bool
(** [false] proves the key is absent; [true] means "probe the patch"
    (always [true] for small patches, which carry no filter). *)

val bloom_admits_hashed : t -> (int * int) lazy_t -> bool
(** [bloom_admits] with the key's [Bloom.hash_pair] computed at most once
    across a whole patch stack (forced only if some patch has a filter). *)

val has_bloom : t -> bool

val to_list : t -> Fact.t list
val get : t -> int -> Fact.t

val range : t -> lo:string -> hi:string -> Fact.t list
(** Facts with [lo <= key <= hi], in patch order. *)

val iter_run : t -> lo:string -> hi:string -> (Fact.t -> unit) -> unit
(** Visit facts with [lo <= key <= hi] in patch order: one lower_bound
    then a sequential walk, allocating nothing. The batched-resolution
    primitive behind {!Pyramid.find_run}. *)

val merge_many :
  ?keep:(Fact.t -> bool) -> ?latest:bool -> ?drop_tombstones:bool -> t list -> t
(** The pyramid's one merge: a k-way merge of runs given shallowest first.
    Of facts sharing a (key, seq) the shallowest run's survives; survivors
    failing [keep] are dropped. [latest] keeps only each key's first kept
    fact (valid only at a pyramid's bottom, where no older level can
    resurrect what it drops), and [drop_tombstones] then drops keys whose
    first kept fact is a retraction. A lone run losing nothing is returned
    as is. *)

val iter_merged :
  ?keep:(Fact.t -> bool) -> ?latest:bool -> ?drop_tombstones:bool -> t list ->
  (Fact.t -> unit) -> unit
(** Visit what {!merge_many} keeps, in order, building no patch (no
    bloom filter): the scan primitive. *)

val merge : t -> t -> t
(** [merge_many [a; b]]: idempotent, and commutative and associative
    when equal (key, seq) facts agree. *)

val compact_latest : t -> drop_tombstones:bool -> t
(** [merge_many ~latest:true ~drop_tombstones [t]]. *)

val serialize : t -> string
val deserialize : string -> t
(** @raise Invalid_argument on malformed input (CRC-checked). *)
