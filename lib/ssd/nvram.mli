(** Shelf NVRAM: the low-latency commit device.

    The paper's "NVRAM" is an SLC flash part with bounded latency and a
    much higher P/E rating than the MLC data drives (§4.1). Purity commits
    application writes and index insertions here first; segios are flushed
    asynchronously and the NVRAM is trimmed once the records it holds are
    durable in flushed segments (§4.2, Figure 4).

    Every accepted commit takes the next position, and trims count in
    positions. The array's one FIFO flush queue notes, at each seal, the
    position below which the segio covers every record (the oldest write
    intent not yet applied, else the next commit), and trims below it
    when that flush completes. Recovery pins the oldest surviving record
    (the recovery floor) until its replay ends.

    The model is an append-only record log with fixed commit latency plus
    bandwidth, living in the shelf (so it survives controller failover). *)

type t

type record = { seq : int64; payload : string }

val create :
  ?latency_us:float ->
  ?mb_s:float ->
  ?capacity:int ->
  clock:Purity_sim.Clock.t ->
  unit ->
  t
(** Defaults: 15 us commit latency, 700 MB/s, 16 MiB capacity. *)

val commit : t -> record -> ((unit, [ `Full ]) result -> unit) -> unit
(** Durably append a record; the callback fires at simulated completion.
    [`Full] means the segment writer has fallen behind and the caller must
    stall (back-pressure, as in the real system). *)

val record_bytes : payload_len:int -> int
(** A record's footprint in the log: its payload plus a 16 B header. *)

val fits : t -> payload_len:int -> bool
(** Whether {!commit} would accept a record with a [payload_len]-byte
    payload now: the admission test alone, so a caller can skip building
    a record the device would refuse. *)

val refuse : t -> ((unit, [ `Full ]) result -> unit) -> unit
(** What {!commit} does with a record that does not fit: the callback
    gets [Error `Full] after the device's refusal delay. *)

val position : t -> int
(** Commits accepted so far: the position the next commit takes. Refused
    commits take none. *)

val oldest_position : t -> int
(** Position of the oldest surviving record ({!position} when none
    survives). *)

val trim_below : t -> int -> unit
(** Drop the records at positions below the given one: they are now
    persisted in flushed segments. *)

val records : t -> record list
(** Surviving records in append order — what recovery replays. *)

val lose : t -> unit
(** Fault injection: drop every pending record (NVRAM content loss). The
    device keeps accepting commits afterwards, so only writes acked before
    the loss and not yet durable in flushed segments are exposed. *)

val losses : t -> int
(** How many times {!lose} has fired on this device. *)

val used_bytes : t -> int
val capacity : t -> int
