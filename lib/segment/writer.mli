(** Segio: the segment write buffer (paper §4.2, Figure 3).

    "A horizontal stripe of write units across the segment, called a
    segio, accumulates compressed user data from the front, and
    accumulates log records from the back. When the two sections meet,
    the segio is completed and marked for flush to SSD." A segio may also
    hold only data or only log records.

    On {!finalize} the buffer is sealed: log records are packed
    immediately after the data region, per-row Reed–Solomon parity is
    computed, and header + rows are appended to the member AUs. Writes
    are staggered so that at most two member drives program
    simultaneously — the §4.4 discipline that keeps reconstruct-reads
    possible while a segment flushes. *)

type t

val create :
  layout:Layout.t ->
  shelf:Purity_ssd.Shelf.t ->
  rs:Purity_erasure.Reed_solomon.t ->
  members:Segment.member array ->
  id:int ->
  t
(** [rs] must match the layout's k and m. [members] length must be
    [k + m]. @raise Invalid_argument otherwise. *)

val id : t -> int
val members : t -> Segment.member array

val data_len : t -> int
val log_len : t -> int

val remaining : t -> int
(** Free bytes between the data front and the log back. *)

val is_empty : t -> bool

val append_data : t -> string -> int option
(** Append payload bytes; returns the payload offset they will occupy, or
    [None] if the segio cannot fit them (caller seals and opens a new
    segment). *)

val append_buffer : t -> Buffer.t -> int option
(** {!append_data} for a frame accumulated in a [Buffer.t]: the bytes
    blit straight from the buffer into the segio, so a caller reusing one
    frame buffer appends without building a string. *)

val append_log : t -> seq:int64 -> string -> bool
(** Append one log record from the back; false when it does not fit. The
    record is length-framed so recovery can reparse the log region. *)

val finalize :
  t ->
  ?pool:Purity_par.Pool.t ->
  ?remap:(exclude:int list -> Segment.member option) ->
  ?tracer:Purity_telemetry.Span.tracer ->
  ?parent:Purity_telemetry.Span.t ->
  (Segment.t -> unit) ->
  unit
(** Seal and flush. The callback fires at simulated completion with the
    final segment description (as also persisted in every member header).
    Per-row RS encoding fans out over [pool] (default: the global
    {!Purity_par.Pool}) — rows are independent and return in row order,
    so the flushed bytes are identical at any domain count.
    With [tracer], the flush is traced: an [rs_encode] span for parity
    computation and one [program] span per member shard (tagged with its
    final drive), all parented under [parent] so the whole multi-hop
    write is reconstructable from the trace.
    A member whose drive is offline (or
    fails mid-flush) is re-homed via [remap] — given the drives already
    in the stripe, return a fresh AU on a healthy drive — and its shard
    restarts from the header; with no replacement available the member is
    skipped and parity absorbs it (up to [m]). Header copies written
    before a remap may list a stale member; the completion callback's
    description (also in the remapped member's own header) is final, so
    the segment-table fact written from it is authoritative. *)

val set_member : t -> index:int -> Segment.member -> unit
(** Remap one member slot to a different (drive, AU) before the flush —
    how a segio abandons a drive that failed after allocation. The shard
    data is still in RAM, so the stripe flushes at full redundancy.
    @raise Invalid_argument once sealed. *)

val abort : t -> unit
(** Stop issuing further chunk writes (controller crash): the flush halts
    where it is, the completion callback never fires, and the torn
    segment is left for recovery to ignore (its header may or may not be
    on some members; partially written AUs are rediscovered via the
    frontier scan and reclaimed by GC). *)

val peek_payload : t -> off:int -> len:int -> string option
(** Read back payload bytes from the segio's RAM buffer (valid before and
    after sealing, until the writer is dropped): how the array serves
    reads of data that has not reached the drives yet. [None] outside the
    written data region. *)

val decode_log_region : bytes -> (int64 * string) list
(** Parse a log region read back from a segment into (seq, record)
    pairs, oldest first. Tolerates a truncated tail (torn write). *)
