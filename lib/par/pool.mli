(** Deterministic fixed-size domain pool.

    Work is split into contiguous per-lane chunks by pure arithmetic (no
    work stealing), results join in submission order, and per-lane seeds
    derive from the pool seed — so a parallel run produces byte-identical
    output to a serial run of the same code, and per-seed replay /
    purity.check's digest-compared double execution survive parallelism.

    Lane 0 is the calling domain; a pool with [domains = 1] executes
    everything inline with zero synchronisation. *)

type t

val create : ?seed:int64 -> domains:int -> unit -> t
(** Spawn [domains - 1] worker domains ([1 <= domains <= 64]). *)

val lanes : t -> int
(** Number of parallel lanes, including the calling domain. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; the pool is unusable after. *)

val chunk : lanes:int -> tasks:int -> int -> int * int
(** [chunk ~lanes ~tasks lane] is the [(lo, len)] contiguous slice of
    [0..tasks-1] owned by [lane] — pure arithmetic, exposed for tests
    and for callers sizing per-lane scratch. *)

val run : t -> tasks:int -> (lane:int -> lo:int -> len:int -> unit) -> unit
(** Execute one batch: each lane [l] runs [f ~lane:l ~lo ~len] on its
    static chunk; returns after every lane finished (worker kernel-stat
    shadows are folded into the main cells first). If any lane raised,
    the lowest lane's exception is re-raised — deterministically. *)

val map : t -> tasks:int -> (lane:int -> int -> 'a) -> 'a array
(** [map t ~tasks f] computes [|f ~lane i|] for [i = 0..tasks-1] with
    each index on its statically-owned lane; result order is index
    order regardless of scheduling. *)

val lane_seed : t -> int -> int64
(** Per-lane RNG seed, a pure function of (pool seed, lane). *)

(** {1 Process-global pool}

    Sized by the [PURITY_DOMAINS] environment variable (default 1 —
    fully inline). Fetch it at use sites rather than caching it so
    test-time {!set_global_domains} swaps take effect. *)

val global : unit -> t

val set_global_domains : int -> unit
(** Replace the global pool (shutting down the old one) — for tests and
    benches that compare domain counts within one process. *)
