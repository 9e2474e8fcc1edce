(** xxHash64: the 64-bit non-cryptographic hash used for deduplication.

    Purity records hashes "no larger than 64 bits" for dedup candidates and
    relies on a byte-level comparison to confirm matches, so hash collisions
    affect only performance, never correctness (paper §4.7). This is a
    from-scratch implementation of the xxHash64 algorithm. *)

val hash : ?seed:int64 -> bytes -> pos:int -> len:int -> int64
(** [hash ?seed buf ~pos ~len] hashes the given slice. *)

val hash_string : ?seed:int64 -> string -> int64
(** Hash a whole string. *)

val truncate : int64 -> bits:int -> int64
(** [truncate h ~bits] keeps the low [bits] bits, emulating the short
    hashes Purity stores in its dedup index to keep the index small. *)

(** {2 hash63: unboxed fingerprints}

    An xxh-style hash defined over the native [int] width (63 bits on a
    64-bit platform): words are folded as two exact 32-bit limbs with
    untagged arithmetic, so fingerprinting a block allocates nothing.
    Used by the dedup index, which stores truncated hashes and always
    byte-verifies candidates, so the narrower width costs nothing but a
    marginally higher (still verified-away) collision rate. *)

val hash63 : ?seed:int -> bytes -> pos:int -> len:int -> int
(** Fingerprint a slice; the result uses the full native-int range and
    may be negative. @raise Invalid_argument on a bad range. *)

val hash63_ref : ?seed:int -> bytes -> pos:int -> len:int -> int
(** Byte-at-a-time reference for {!hash63}; property-tested identical. *)

val truncate_int : int -> bits:int -> int
(** Keep the low [bits] bits of a {!hash63} fingerprint (non-negative for
    [bits < 63]). *)
