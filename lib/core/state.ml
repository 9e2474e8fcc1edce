(* Shared state of one Purity array (controller-resident volatile state
   plus handles to the shelf's persistent devices). The public facade is
   {!Array_}; the write/read/GC/recovery paths live in sibling modules
   operating over this record. *)

module Clock = Purity_sim.Clock
module Stbl = Purity_util.Keytbl.Str
module Rng = Purity_util.Rng
module Histogram = Purity_util.Histogram
module Varint = Purity_util.Varint
module Shelf = Purity_ssd.Shelf
module Drive = Purity_ssd.Drive
module Nvram = Purity_ssd.Nvram
module Rs = Purity_erasure.Reed_solomon
module Layout = Purity_segment.Layout
module Segment = Purity_segment.Segment
module Allocator = Purity_segment.Allocator
module Writer = Purity_segment.Writer
module Scan = Purity_segment.Scan
module Io = Purity_sched.Io
module Pyramid = Purity_pyramid.Pyramid
module Fact = Purity_pyramid.Fact
module Patch = Purity_pyramid.Patch
module Seqno = Purity_pyramid.Seqno
module Medium = Purity_medium.Medium
module Dedup = Purity_dedup.Dedup
module Cblock = Purity_compress.Cblock
module Registry = Purity_telemetry.Registry
module Span = Purity_telemetry.Span

let block_size = 512

type config = {
  drives : int;
  drive_config : Drive.config;
  k : int;
  m : int;
  write_unit : int;
  nvram_capacity : int;
  memtable_flush : int;
  read_around_write : bool;
  p95_backup : bool;
  inline_dedup : bool;
  compression : bool;
  dedup_config : Dedup.config;
  read_cache_entries : int;
      (* decoded cblocks cached in controller DRAM, up to 32 KiB each
         (128 MiB at the default 4096); 0 = off *)
  map_cache_entries : int; (* logical->blockref mapping cache slots; 0 = off *)
  secondary_warming : bool;
      (* paper 4.3: the primary asynchronously warms the spare's cache, so
         a failover starts warm instead of cold *)
  seed : int64;
}

let default_config =
  {
    drives = 11;
    drive_config =
      {
        Drive.default_config with
        (* header page + 16 rows of 32 KiB write units *)
        Drive.au_size = 4096 + (16 * 32768);
        num_aus = 128;
        dies = 8;
      };
    k = 7;
    m = 2;
    write_unit = 32 * 1024;
    nvram_capacity = 16 * 1024 * 1024;
    memtable_flush = 4096;
    read_around_write = true;
    p95_backup = false;
    inline_dedup = true;
    compression = true;
    dedup_config = Dedup.default_config;
    read_cache_entries = 4096;
    map_cache_entries = 8192;
    secondary_warming = true;
    seed = 0x5EEDL;
  }

type volume_kind = Volume | Snapshot

(* Paper 4.6: instead of per-volume block-size tuning knobs, the array
   observes each volume's write sizes and sizes cblocks to match, so
   later reads (which overwhelmingly use the same size and alignment as
   the write that created the data) fetch a single cblock. *)
type io_observer = {
  mutable size_counts : int array; (* histogram over power-of-two block counts 1..64 *)
  mutable observed : int;
}

type volume = {
  mutable medium : int;
  mutable blocks : int;
  kind : volume_kind;
  observer : io_observer;
}

let fresh_observer () = { size_counts = Array.make 7 0; observed = 0 }

let observe_write obs ~nblocks =
  (* bucket by power of two: 1,2,4,8,16,32,64 blocks (512 B - 32 KiB) *)
  let rec bucket i cap = if nblocks <= cap || i = 6 then i else bucket (i + 1) (cap * 2) in
  let b = bucket 0 1 in
  obs.size_counts.(b) <- obs.size_counts.(b) + 1;
  obs.observed <- obs.observed + 1

(* The dominant write size (in 512 B blocks), defaulting to the 32 KiB
   maximum until enough evidence accumulates. *)
let inferred_io_blocks obs =
  if obs.observed < 16 then 64
  else begin
    let best = ref 6 and best_count = ref 0 in
    Array.iteri
      (fun i c ->
        if c > !best_count then begin
          best := i;
          best_count := c
        end)
      obs.size_counts;
    1 lsl !best
  end

(* The write/read-path counters, as registry handles: the telemetry
   registry owns the cells, the hot paths record through them, and
   Flash_array.stats (and the phone-home exporter) read them back. *)
type write_stats = {
  app_writes : Registry.counter;
  logical_bytes : Registry.counter; (* application bytes ever written *)
  stored_bytes : Registry.counter; (* cblock frames appended to segments *)
  dedup_blocks : Registry.counter; (* 512B blocks absorbed by inline dedup *)
  gc_dedup_blocks : Registry.counter; (* cblocks collapsed by the GC pass *)
  cache_hits : Registry.counter; (* controller-DRAM read cache *)
  cache_misses : Registry.counter;
  map_hits : Registry.counter; (* logical->blockref mapping cache *)
  map_misses : Registry.counter;
  nvram_commit_us : Histogram.t; (* write intent -> durability ack *)
}

(* Two non-negative ints in one cache key: [lo] in the low [lo_bits]
   bits, [hi] in the rest of a non-negative int. One int hashes and
   compares without a tuple's allocation. A pair that does not fit packs
   to [no_key], which no cache stores: its lookups go to the source. *)
let no_key = -1

let pack_key ~lo_bits ~hi ~lo =
  if hi >= 0 && lo >= 0 && lo lsr lo_bits = 0 && hi lsr (62 - lo_bits) = 0 then
    (hi lsl lo_bits) lor lo
  else no_key

(* read cache: (segment, payload offset), offsets below 4 GiB *)
let read_key ~segment ~off = pack_key ~lo_bits:32 ~hi:segment ~lo:off

(* map cache: (medium, block), blocks below 2^40 (a 512 TiB volume) and
   medium ids below 2^22 *)
let map_key_bits = 40
let map_key ~medium ~block = pack_key ~lo_bits:map_key_bits ~hi:medium ~lo:block
let map_key_medium k = k lsr map_key_bits

(* A segio whose bytes are not yet on the drives, with the cblocks reads
   have decoded out of its buffer (payload off -> data). The memo lives
   and dies with the entry, so it never needs invalidating. *)
type segio = { writer : Writer.t; decoded : (int, string) Hashtbl.t }

(* A sealed segio waiting in the flush queue, with the NVRAM position
   its flush's completion trims below. *)
type flush = { sealed : Writer.t; trim_below : int }

type t = {
  cfg : config;
  clock : Clock.t;
  tel : Registry.t;
  tracer : Span.tracer;
  shelf : Shelf.t;
  layout : Layout.t;
  rs : Rs.t;
  io : Io.t;
  alloc : Allocator.t;
  boot : Boot_region.t;
  seqno : Seqno.t;
  (* relations *)
  blocks : Pyramid.t; (* (medium, block) -> Blockref; elide by medium *)
  mediums_pyr : Pyramid.t; (* medium -> extents; elide by medium *)
  segments_pyr : Pyramid.t; (* segment -> compact meta; tombstones *)
  volumes_pyr : Pyramid.t; (* name -> (kind, medium, blocks); tombstones *)
  (* volatile derived state *)
  mutable medium_table : Medium.t;
  volumes : volume Stbl.t;
  segment_metas : (int, Segment.t) Hashtbl.t;
  mutable checkpoint_segments : int list; (* hold the current checkpoint *)
  mutable next_segment_id : int;
  mutable open_writer : Writer.t option;
  unflushed : (int, segio) Hashtbl.t;
      (* segios (open or sealed) whose bytes are not yet on the drives;
         reads of their payload are served from RAM *)
  evacuating : (int, unit) Hashtbl.t;
      (* segments an evacuation (GC, scrub, rebuild) is emptying: no
         inline-dedup source until released or kept *)
  unapplied : int Queue.t;
      (* NVRAM positions of the write intents committed and not yet
         applied, oldest first (NVRAM completes commits in order);
         recovery pins the oldest surviving record's here until its
         replay ends *)
  mutable flush_waiters : (unit -> unit) list;
  flush_queue : flush Queue.t;
      (* sealed segios in seal order, flushed one at a time — the head is
         in flight and leaves at its completion — so that at most two
         drives in the whole array are programming simultaneously (the
         §4.4 discipline that keeps read-around-write amplification near
         the paper's 1.3x) *)
  mutable checkpoint_dir : (string * string * (string * int * int) list) list;
      (* last checkpoint's patch directory: pyramid name, encoded elide
         ranges (empty for tombstone tables), chunks as (compact segment
         meta, payload off, len) *)
  mutable checkpoint_seq : int64;
      (* seq watermark of the last completed checkpoint: every fact with a
         sequence number at or below it is covered by the patches, and its
         tombstone (if any) may have been dropped by the checkpoint's full
         compaction — so recovery must never replay log records this old,
         or compacted-away deletions would resurrect *)
  mutable boot_generation_written : int;
  dedup : Dedup.t;
  dedup_locs : (int, Blockref.t) Hashtbl.t; (* dedup write id -> cblock home *)
  mutable arenas : Arena.t array;
      (* per-lane compress/frame scratch for the fill loop: index 0 is the
         controller's own (serial) arena; grown to the pool's lane count
         on first parallel fill (lane_arenas) *)
  read_cache : (int, string) Purity_util.Lru.t;
      (* packed (segment, off) -> decoded, CRC-verified cblock data *)
  map_cache : (int, Blockref.t option) Purity_util.Lru.t;
      (* packed (medium, block) -> memoized block-pyramid lookup, negative
         results included (thin-provisioned upper levels miss constantly).
         Each entry mirrors exactly one pyramid key, so invalidation is
         exact: any fact or elide landing on the key evicts it. Never
         consulted for snapshot reads — those carry their own seq bound. *)
  (* accounting *)
  write_lat : Histogram.t;
  read_lat : Histogram.t;
  ws : write_stats;
  mutable online : bool;
  tables : (char * Pyramid.t) list;
      (* the four relations under their metadata-record tags, in
         checkpoint order. Last on purpose: inserted after [volumes_pyr],
         which shifts every later field, oltp-hot measured ~10% lower
         host throughput. *)
}

let blocks_policy = Pyramid.Elide (fun f -> Keys.block_key_medium f.Fact.key)
let mediums_policy = Pyramid.Elide (fun f -> Keys.medium_key_id f.Fact.key)

let fresh_volatile cfg =
  let memtable_flush_count = cfg.memtable_flush in
  ( Pyramid.create ~memtable_flush_count ~policy:blocks_policy ~name:"blocks" (),
    Pyramid.create ~memtable_flush_count ~policy:mediums_policy ~name:"mediums" (),
    Pyramid.create ~memtable_flush_count ~policy:Pyramid.Tombstones ~name:"segments" (),
    Pyramid.create ~memtable_flush_count ~policy:Pyramid.Tombstones ~name:"volumes" () )

(* Derived metrics over controller state: sampled at snapshot time, so
   the registry exposes live table sizes without per-mutation recording. *)
let register_derived_telemetry t =
  let reg = t.tel in
  Registry.derive_int reg "segments/live" (fun () -> Hashtbl.length t.segment_metas);
  Registry.derive_int reg "segments/unflushed" (fun () -> Hashtbl.length t.unflushed);
  Registry.derive_int reg "segments/pending_flushes" (fun () -> Queue.length t.flush_queue);
  Registry.derive_int reg "segments/next_id" (fun () -> t.next_segment_id);
  Registry.derive_int reg "volumes/count" (fun () -> Stbl.length t.volumes);
  Registry.derive_int reg "pyramid/blocks_facts" (fun () -> Pyramid.fact_count t.blocks);
  Registry.derive_int reg "pyramid/blocks_patches" (fun () -> Pyramid.patch_count t.blocks);
  Registry.derive_int reg "pyramid/blocks_probes" (fun () ->
      let p, _, _ = Pyramid.probe_stats t.blocks in
      p);
  Registry.derive_int reg "pyramid/blocks_fence_skips" (fun () ->
      let _, f, _ = Pyramid.probe_stats t.blocks in
      f);
  Registry.derive_int reg "pyramid/blocks_bloom_skips" (fun () ->
      let _, _, b = Pyramid.probe_stats t.blocks in
      b);
  Registry.derive_int reg "read_path/map_cache_entries" (fun () ->
      Purity_util.Lru.length t.map_cache);
  Registry.derive_int reg "trace/dropped_spans" (fun () -> Span.dropped t.tracer);
  (* data-plane kernel throughput: process-wide cells (the kernels sit
     below the telemetry library in the dependency order), re-derived
     into whichever controller registry is current *)
  List.iter
    (fun (k : Purity_util.Kernel_stats.kernel) ->
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_bytes") (fun () -> k.bytes);
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_calls") (fun () -> k.calls);
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_ns") (fun () -> k.ns))
    Purity_util.Kernel_stats.all

let create_over ~config ~clock ~shelf ~boot () =
  let layout =
    Layout.make ~k:config.k ~m:config.m ~write_unit:config.write_unit
      ~au_size:config.drive_config.Drive.au_size ()
  in
  let rs = Rs.create ~k:config.k ~m:config.m in
  let io =
    Io.create ~layout ~shelf ~rs ~read_around_write:config.read_around_write
      ~p95_backup:config.p95_backup ()
  in
  let alloc =
    Allocator.create ~layout ~drives:config.drives
      ~aus_per_drive:config.drive_config.Drive.num_aus ()
  in
  let blocks, mediums_pyr, segments_pyr, volumes_pyr = fresh_volatile config in
  (* The controller's metric namespace: a fresh registry per controller
     generation (a failover boots the spare with zeroed path counters,
     exactly as the old per-field ints behaved). *)
  let tel = Registry.create () in
  let tracer = Span.create_tracer ~clock () in
  Shelf.register_telemetry shelf tel;
  Io.register_telemetry io tel;
  let t =
    {
    cfg = config;
    clock;
    tel;
    tracer;
    shelf;
    layout;
    rs;
    io;
    alloc;
    boot;
    seqno = Seqno.create ();
    blocks;
    mediums_pyr;
    segments_pyr;
    volumes_pyr;
    medium_table = Medium.create ();
    volumes = Stbl.create 16;
    segment_metas = Hashtbl.create 64;
    checkpoint_segments = [];
    next_segment_id = 1;
    open_writer = None;
    unflushed = Hashtbl.create 8;
    evacuating = Hashtbl.create 8;
    unapplied = Queue.create ();
    flush_waiters = [];
    flush_queue = Queue.create ();
    checkpoint_dir = [];
    checkpoint_seq = 0L;
    boot_generation_written = 0;
    dedup = Dedup.create ~config:config.dedup_config ();
    dedup_locs = Hashtbl.create 1024;
    arenas = [| Arena.create () |];
    read_cache = Purity_util.Lru.create ~capacity:(max 1 config.read_cache_entries);
    map_cache = Purity_util.Lru.create ~capacity:(max 1 config.map_cache_entries);
    write_lat = Registry.histogram tel "write_path/latency_us";
    read_lat = Registry.histogram tel "read_path/latency_us";
    ws =
      {
        app_writes = Registry.counter tel "write_path/app_writes";
        logical_bytes = Registry.counter tel "write_path/logical_bytes";
        stored_bytes = Registry.counter tel "write_path/stored_bytes";
        dedup_blocks = Registry.counter tel "dedup/inline_blocks";
        gc_dedup_blocks = Registry.counter tel "dedup/gc_blocks";
        cache_hits = Registry.counter tel "read_path/cache_hits";
        cache_misses = Registry.counter tel "read_path/cache_misses";
        map_hits = Registry.counter tel "read_path/map_cache_hits";
        map_misses = Registry.counter tel "read_path/map_cache_misses";
        nvram_commit_us = Registry.histogram tel "write_path/nvram_commit_us";
      };
    online = true;
    tables = [ ('B', blocks); ('M', mediums_pyr); ('S', segments_pyr); ('V', volumes_pyr) ];
    }
  in
  register_derived_telemetry t;
  t

let create ?(config = default_config) ~clock () =
  let rng = Rng.create ~seed:config.seed in
  let shelf =
    Shelf.create ~drive_config:config.drive_config ~nvram_capacity:config.nvram_capacity
      ~clock ~rng ~drives:config.drives ()
  in
  let boot = Boot_region.create ~clock () in
  create_over ~config ~clock ~shelf ~boot ()

let nvram t = Shelf.nvram t.shelf

(* The per-lane scratch arenas for a parallel segment fill, grown (on the
   main domain, before any fan-out) to at least the pool's lane count.
   Lane 0 is the controller's own serial arena. *)
let lane_arenas t ~lanes =
  if Array.length t.arenas < lanes then begin
    let old = t.arenas in
    t.arenas <-
      Array.init lanes (fun i ->
          if i < Array.length old then old.(i) else Arena.create ())
  end;
  t.arenas

let online_drive t d = Drive.is_online (Shelf.drive t.shelf d)

(* ---------- metadata records (Figure 4) ----------
   Every metadata mutation is one [change] to one table. It is written
   as a log record in the current segio, so recovery can rediscover it,
   and, when NVRAM-backed, as a stash in NVRAM too. One codec serves both
   copies; the table is named by its one-byte tag (see [tables]):
     log record    tag fact       'e' tag seq lo hi
     NVRAM stash   'F' tag fact   'E' tag seq lo hi *)

type change = Put of Fact.t | Elide of { seq : int64; lo : int; hi : int }

let encode_change ~stash tag change =
  let buf = Buffer.create 64 in
  (match change with
  | Put fact ->
    if stash then Buffer.add_char buf 'F';
    Buffer.add_char buf tag;
    Fact.encode buf fact
  | Elide { seq; lo; hi } ->
    Buffer.add_char buf (if stash then 'E' else 'e');
    Buffer.add_char buf tag;
    Varint.write_i64 buf seq;
    Varint.write buf lo;
    Varint.write buf hi);
  Buffer.contents buf

(* [Some (tag, change)] for exactly one whole record; [None] for anything
   else — empty, truncated, trailing bytes, an unknown stash kind. *)
let decode_change ~stash s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  (* (is an elide, position of the table tag) *)
  let shape =
    if n = 0 then None
    else
      match (stash, s.[0]) with
      | false, 'e' | true, 'E' -> Some (true, 1)
      | true, 'F' -> Some (false, 1)
      | false, _ -> Some (false, 0)
      | true, _ -> None
  in
  match shape with
  | Some (elide, tp) when tp < n -> (
    match
      if elide then begin
        let seq, p = Varint.read_i64 buf ~pos:(tp + 1) in
        let lo, p = Varint.read buf ~pos:p in
        let hi, p = Varint.read buf ~pos:p in
        (Elide { seq; lo; hi }, p)
      end
      else
        let fact, p = Fact.decode buf ~pos:(tp + 1) in
        (Put fact, p)
    with
    | change, p when p = n -> Some (s.[tp], change)
    | _ -> None
    | exception Invalid_argument _ -> None)
  | _ -> None

let apply_change pyr = function
  | Put fact -> Pyramid.insert_fact pyr fact
  | Elide { seq; lo; hi } -> Pyramid.elide_range pyr ~seq ~lo ~hi

(* Which changes are also committed to NVRAM (fire-and-forget: the
   model's log state mutates at call time), so they survive a crash while
   their log record still sits in an unflushed segio:
   - volume and medium changes, so namespace operations are durable;
   - segment-table changes, because the 'S' fact written at flush
     completion is the segment's commit record, and recovery refuses to
     replay log records out of a segment with no surviving proof of
     commit (a torn flush can leave the log region readable while data
     rows are gone);
   - block elides, which retire a deleted volume's or snapshot's block
     facts: no write intent stands behind them.
   Block facts are not: the write intent that produced them is already
   in NVRAM. *)
let nvram_backed tag change = match change with Elide _ -> true | Put _ -> tag <> 'B'

let table_of_tag t tag = List.assoc_opt tag t.tables

let rec tag_in pyr = function
  | (tag, p) :: rest -> if p == pyr then tag else tag_in pyr rest
  | [] -> invalid_arg "State.record: not a table of this array"

(* Mapping-cache invalidation. Every mutation of the block pyramid flows
   through [record] below (the write path's overwrites, GC relocation,
   TRIM, medium retirement, NVRAM-stash replay). An entry caches exactly
   one pyramid key, making point eviction exact. *)
let invalidate_block_mapping t key =
  let k = map_key ~medium:(Keys.block_key_medium key) ~block:(Keys.block_key_block key) in
  if k <> no_key then Purity_util.Lru.remove t.map_cache k

(* Medium ids are the blocks pyramid's elide ids: retiring mediums
   [lo..hi] kills every cached mapping they own. Rare (volume/snapshot
   deletion), so a full cache sweep is fine. *)
let invalidate_medium_mappings t ~lo ~hi =
  let victims =
    Purity_util.Lru.fold
      (fun k _ acc ->
        let m = map_key_medium k in
        if m >= lo && m <= hi then k :: acc else acc)
      t.map_cache []
  in
  List.iter (Purity_util.Lru.remove t.map_cache) victims

exception Out_of_space

(* ---------- boot-region blob ---------- *)

let encode_boot t =
  let buf = Buffer.create 512 in
  Varint.write buf 1;
  let frontier = Allocator.encode_persisted t.alloc in
  Varint.write buf (String.length frontier);
  Buffer.add_string buf frontier;
  Varint.write buf t.next_segment_id;
  Varint.write buf (Medium.peek_next_id t.medium_table);
  Varint.write_i64 buf (Seqno.current t.seqno);
  Varint.write_i64 buf t.checkpoint_seq;
  Varint.write buf (List.length t.checkpoint_dir);
  List.iter
    (fun (name, ranges, chunks) ->
      Varint.write buf (String.length name);
      Buffer.add_string buf name;
      Varint.write buf (String.length ranges);
      Buffer.add_string buf ranges;
      Varint.write buf (List.length chunks);
      List.iter
        (fun (meta, off, len) ->
          Varint.write buf (String.length meta);
          Buffer.add_string buf meta;
          Varint.write buf off;
          Varint.write buf len)
        chunks)
    t.checkpoint_dir;
  Buffer.contents buf

(* Rewrite the boot region when the allocator's persisted sets changed
   (fire-and-forget; frontier refills run well before the fresh AUs are
   written, so the window between refill and durability is tiny — see
   DESIGN.md). *)
let maybe_persist_boot t =
  (* a dead controller must never clobber the live one's boot region *)
  let gen = Allocator.persist_generation t.alloc in
  if t.online && gen <> t.boot_generation_written then begin
    t.boot_generation_written <- gen;
    Boot_region.write t.boot (encode_boot t) (fun () -> ())
  end

(* Erase-before-reuse: an AU can reach the pool still holding data
   (released while its drive was offline, or torn by a crashed
   controller's aborted flush); trim it before use so the append-only
   contract holds. *)
let erase_for_reuse t (m : Segment.member) =
  let d = Shelf.drive t.shelf m.Segment.drive in
  if Drive.is_online d && Drive.au_fill d ~au:m.Segment.au > 0 then
    Drive.trim_au d ~au:m.Segment.au

(* Reserve a single replacement AU on a healthy drive (for segio member
   remaps). *)
let allocate_replacement t ~exclude =
  let m =
    Allocator.allocate_one t.alloc ~allowed:(fun d -> online_drive t d && not (List.mem d exclude))
  in
  Option.iter (erase_for_reuse t) m;
  m

(* Allocate and open a fresh segio writer. Segment-roll granularity:
   runs once per segment (thousands of frames), so its allocations are
   off the steady-state fill loop. *)
let[@purity.lint.coldpath] open_fresh_writer t =
  match Allocator.allocate t.alloc ~online:(online_drive t) with
  | None -> raise Out_of_space
  | Some members ->
    let id = t.next_segment_id in
    t.next_segment_id <- id + 1;
    Array.iter (erase_for_reuse t) members;
    let w = Writer.create ~layout:t.layout ~shelf:t.shelf ~rs:t.rs ~members ~id in
    t.open_writer <- Some w;
    Hashtbl.replace t.unflushed id { writer = w; decoded = Hashtbl.create 8 };
    (* a refill may have changed the persisted frontier: rewrite the
       boot region before this segment accumulates log records *)
    maybe_persist_boot t;
    w

(* Where a seal's NVRAM trim stops: below the oldest unapplied intent,
   or at the next commit. Every record before it is covered by the
   sealed segio or an earlier one — a metadata stash is committed after
   its log record is appended, so a seal fired by that append stops at
   the stash. *)
let trim_point t =
  match Queue.peek_opt t.unapplied with Some p -> p | None -> Nvram.position (nvram t)

(* Open (allocating if needed) a segment writer with room for [need] more
   payload bytes. Sealing the previous writer is asynchronous; its pages
   are already staged so ordering is preserved. The per-frame fast path
   (open writer with room, members online) allocates nothing. *)
let rec writer_with_room t ~need =
  if not t.online then raise Out_of_space (* dead controllers allocate nothing *);
  if need > Layout.payload_capacity t.layout then
    invalid_arg "writer_with_room: larger than a segment";
  match t.open_writer with
  | None -> open_fresh_writer t
  | Some w ->
    (* a member drive failing after allocation abandons the segio for new
       appends: writes shift to a fully-online write group. Checked with
       a plain loop — an [Array.for_all] closure here would allocate on
       every stored frame. *)
    let members = Writer.members w in
    let members_online = ref true in
    for i = 0 to Array.length members - 1 do
      if not (online_drive t members.(i).Segment.drive) then
        members_online := false
    done;
    if Writer.remaining w >= need && !members_online then w
    else begin
      seal_current t;
      writer_with_room t ~need
    end

(* Seal the open segio: flush it to the drives, register its meta, trim
   the NVRAM records it covers. Segment-roll granularity — everything
   from here down (flush pump, erasure encode, pyramid flush, NVRAM
   trim) amortises over a whole segment of frames. *)
and[@purity.lint.coldpath] seal_current t =
  match t.open_writer with
  | None -> ()
  | Some w ->
    t.open_writer <- None;
    if Writer.is_empty w then begin
      (* never written: hand the AUs back *)
      Hashtbl.remove t.unflushed (Writer.id w);
      Allocator.release t.alloc (Writer.members w)
    end
    else begin
      (* Members whose drive failed since allocation are remapped to fresh
         AUs on healthy drives — the shard data is still in RAM, so the
         stripe reaches the media at full 7+2 redundancy instead of
         flushing already-degraded. *)
      let members = Writer.members w in
      Array.iteri
        (fun i (m : Segment.member) ->
          if not (online_drive t m.Segment.drive) then begin
            let exclude =
              Array.to_list (Array.map (fun (x : Segment.member) -> x.Segment.drive) members)
            in
            match allocate_replacement t ~exclude with
            | Some repl ->
              Allocator.release t.alloc [| m |];
              Writer.set_member w ~index:i repl
            | None -> () (* no healthy spare drive: flush degraded *)
          end)
        members;
      Queue.add { sealed = w; trim_below = trim_point t } t.flush_queue;
      if Queue.length t.flush_queue = 1 then start_flush t
    end

(* Flush the head of the flush queue. Its completion trims NVRAM, drops
   the entry and starts the next, so segios flush one at a time in seal
   order (array-wide write staggering). *)
and start_flush t =
  match Queue.peek_opt t.flush_queue with
  | Some { sealed = w; trim_below } when t.online ->
    let remap ~exclude = allocate_replacement t ~exclude in
    let flush_span =
      Span.start t.tracer
        ~tags:
          [
            ("segment", string_of_int (Writer.id w));
            ("data_len", string_of_int (Writer.data_len w));
            ("log_len", string_of_int (Writer.log_len w));
          ]
        "segio_flush"
    in
    Writer.finalize w ~remap ~tracer:t.tracer
      ~parent:flush_span (fun seg ->
        Span.finish flush_span;
        Hashtbl.replace t.segment_metas seg.Segment.id seg;
        Hashtbl.remove t.unflushed seg.Segment.id;
        (* The segment table fact describes the sealed segment; it doubles
           as the commit record, so it is stashed in NVRAM as well — until
           a later flushed segio carries the log copy, the stash is the
           only proof that this segment's contents may be trusted. *)
        put t t.segments_pyr ~key:(Keys.segment_key seg.Segment.id)
          ~value:(Segment.encode_compact seg);
        Nvram.trim_below (nvram t) trim_below;
        ignore (Queue.pop t.flush_queue);
        start_flush t;
        if Queue.is_empty t.flush_queue then begin
          (* stored newest-first; fired as stored (see when_flushed) *)
          let waiters = t.flush_waiters in
          t.flush_waiters <- [];
          List.iter (fun f -> f ()) waiters
        end)
  | _ -> ()

(* Append one framed log record, rolling segments as needed. The 16 B
   margin covers the frame's header, two varints of at most 15 B, so the
   append cannot miss. *)
and append_log_record t ~seq record =
  let w = writer_with_room t ~need:(String.length record + 16) in
  if not (Writer.append_log w ~seq record) then raise Out_of_space

(* Invalidate the map cache, apply the change, log it, and stash it when
   NVRAM-backed: the one commit path of every metadata mutation. *)
and record t pyr change =
  (if pyr == t.blocks then
     match change with
     | Put fact -> invalidate_block_mapping t fact.Fact.key
     | Elide { lo; hi; _ } -> invalidate_medium_mappings t ~lo ~hi);
  apply_change pyr change;
  let tag = tag_in pyr t.tables in
  let seq = match change with Put f -> f.Fact.seq | Elide e -> e.seq in
  append_log_record t ~seq (encode_change ~stash:false tag change);
  if nvram_backed tag change then
    Nvram.commit (nvram t)
      { Nvram.seq; payload = encode_change ~stash:true tag change }
      (fun _ -> ())

and put t pyr ~key ~value = record t pyr (Put (Fact.make ~key ~value ~seq:(Seqno.next t.seqno)))

let put_delete t pyr ~key = record t pyr (Put (Fact.tombstone ~key ~seq:(Seqno.next t.seqno)))
let put_elide t pyr ~lo ~hi = record t pyr (Elide { seq = Seqno.next t.seqno; lo; hi })

(* Store a data blob (cblock frame or patch chunk) in the current segio.
   Returns (segment id, payload offset). *)
let store_blob t data =
  let need = String.length data + 16 in
  if need > Layout.payload_capacity t.layout then invalid_arg "store_blob: blob too large";
  let w = writer_with_room t ~need in
  match Writer.append_data w data with
  | Some off -> (Writer.id w, off)
  | None -> raise Out_of_space (* unreachable: [w] has [need] bytes free *)

(* [store_blob] for a frame accumulated in a reusable Buffer (the write
   path's arena): the bytes blit straight into the segio. *)
let[@purity.lint.allow
     "hotalloc: the (segment, offset) pair is the stored frame's \
      address — the function's result, two words per frame"] store_frame
    t frame =
  let need = Buffer.length frame + 16 in
  if need > Layout.payload_capacity t.layout then invalid_arg "store_frame: blob too large";
  let w = writer_with_room t ~need in
  match Writer.append_buffer w frame with
  | Some off -> (Writer.id w, off)
  | None -> raise Out_of_space (* unreachable: [w] has [need] bytes free *)

(* Destroy a segment: the inverse of [open_fresh_writer]. Its meta and
   segment-table fact go, its AUs are trimmed and handed back to the
   allocator, and inline-dedup sources living in it are forgotten.
   Returns the bytes reclaimed. *)
let release_segment t seg_id =
  Hashtbl.remove t.evacuating seg_id;
  match Hashtbl.find_opt t.segment_metas seg_id with
  | None -> 0
  | Some meta ->
    Hashtbl.remove t.segment_metas seg_id;
    put_delete t t.segments_pyr ~key:(Keys.segment_key seg_id);
    Array.iter
      (fun (m : Segment.member) ->
        let d = Shelf.drive t.shelf m.Segment.drive in
        if Drive.is_online d then Drive.trim_au d ~au:m.Segment.au)
      meta.Segment.members;
    Allocator.release t.alloc meta.Segment.members;
    let stale =
      Hashtbl.fold
        (fun wid (r : Blockref.t) acc -> if r.Blockref.segment = seg_id then wid :: acc else acc)
        t.dedup_locs []
    in
    List.iter
      (fun wid ->
        Hashtbl.remove t.dedup_locs wid;
        Dedup.forget t.dedup ~write_id:wid)
      stale;
    Array.length meta.Segment.members * t.cfg.drive_config.Drive.au_size

(* Persist the current extent rows of a medium as a fact. *)
let persist_medium t id =
  let extents = Medium.extents t.medium_table id in
  put t t.mediums_pyr ~key:(Keys.medium_key id) ~value:(Medium.encode_extents extents)

let encode_volume_value v =
  let buf = Buffer.create 8 in
  Buffer.add_char buf (match v.kind with Volume -> 'V' | Snapshot -> 'S');
  Varint.write buf v.medium;
  Varint.write buf v.blocks;
  Buffer.contents buf

let decode_volume_value s =
  let buf = Bytes.unsafe_of_string s in
  let kind = match Bytes.get buf 0 with 'V' -> Volume | 'S' -> Snapshot | _ -> invalid_arg "volume value" in
  let medium, p = Varint.read buf ~pos:1 in
  let blocks, _ = Varint.read buf ~pos:p in
  { medium; blocks; kind; observer = fresh_observer () }

let persist_volume t name v =
  put t t.volumes_pyr ~key:name ~value:(encode_volume_value v)

(* Admission for a namespace op, whose changes are all NVRAM-backed:
   whether NVRAM can take the stashes of medium rows with the given
   extent counts, volume rows (or tombstones) for [names] and [elides]
   elides. Each stash is sized by encoding a sample whose every number
   takes its longest varint, so the bound follows the codecs. *)
let stashes_fit t ?(elides = 0) ~mediums names =
  let big = max_int and seq = Int64.minus_one in
  let stash c = Nvram.record_bytes ~payload_len:(String.length (encode_change ~stash:true 'x' c)) in
  let put key value = stash (Put (Fact.make ~key ~value ~seq)) in
  let target = Medium.Underlying { medium = big; offset = big } in
  let e = { Medium.start_block = big / 2; end_block = big; target; status = RW; skip_local = true } in
  let v = { medium = big; blocks = big; kind = Volume; observer = fresh_observer () } in
  let medium a n = a + put (Keys.medium_key big) (Medium.encode_extents (List.init n (fun _ -> e))) in
  let need = List.fold_left medium (elides * stash (Elide { seq; lo = big; hi = big })) mediums in
  let need = List.fold_left (fun a name -> a + put name (encode_volume_value v)) need names in
  Nvram.used_bytes (nvram t) + need <= Nvram.capacity (nvram t)

let lookup_blockref_uncached t ~medium ~block =
  match Pyramid.find t.blocks (Keys.block_key ~medium ~block) with
  | Some v -> Some (Blockref.decode v)
  | None -> None

(* Nearest level of the medium chain holding this block, every pyramid
   probe done from scratch: the reference [resolve_range] is checked
   against. *)
let resolve_block_uncached t ~medium ~block =
  let chain = Medium.resolve t.medium_table medium ~block in
  List.find_map (fun (med, blk) -> lookup_blockref_uncached t ~medium:med ~block:blk) chain

(* Batched resolution for [nblocks] consecutive logical blocks through
   the mapping cache: equivalent to [resolve_block_uncached] per block,
   but each medium level consulted does one lower_bound + sequential walk per patch
   (Pyramid.find_run) for all its unresolved blocks instead of per-block
   binary searches. Sub-ranges are split along extent boundaries and
   recursed level by level, respecting [skip_local] exactly as
   Medium.resolve does. *)
let resolve_range t ~medium ~block ~nblocks =
  let out = Array.make nblocks None in
  let resolved = Array.make nblocks false in
  let use_cache = t.cfg.map_cache_entries > 0 in
  (* one level of one extent piece: fill [off .. off+len-1] from the
     cache, then one batched pyramid run for the misses *)
  let lookup_level ~medium ~block ~len ~off =
    let pending = Array.make len false in
    let first = ref len and last = ref (-1) in
    for i = 0 to len - 1 do
      if not resolved.(off + i) then begin
        let key = if use_cache then map_key ~medium ~block:(block + i) else no_key in
        let cached = if key = no_key then None else Purity_util.Lru.find t.map_cache key in
        match cached with
        | Some r ->
          Registry.incr t.ws.map_hits;
          (match r with
          | Some _ ->
            out.(off + i) <- r;
            resolved.(off + i) <- true
          | None -> () (* this level known empty; deeper levels may serve *))
        | None ->
          if key <> no_key then Registry.incr t.ws.map_misses;
          pending.(i) <- true;
          if i < !first then first := i;
          last := i
      end
    done;
    if !last >= !first then begin
      let base = block + !first in
      let n = !last - !first + 1 in
      let run =
        Pyramid.find_run t.blocks ~n
          ~key_of:(fun i -> Keys.block_key ~medium ~block:(base + i))
          ~index:(fun key ->
            if Keys.block_key_medium key = medium then Keys.block_key_block key - base
            else -1)
      in
      for i = !first to !last do
        if pending.(i) then begin
          let v = Pyramid.resolve_fact t.blocks run.(i - !first) in
          let r = Option.map Blockref.decode v in
          let key = if use_cache then map_key ~medium ~block:(block + i) else no_key in
          if key <> no_key then Purity_util.Lru.add t.map_cache key r;
          match r with
          | Some _ ->
            out.(off + i) <- r;
            resolved.(off + i) <- true
          | None -> ()
        end
      done
    end
  in
  let limit = List.length (Medium.live_mediums t.medium_table) + 1 in
  let rec go ~medium ~block ~n ~off depth =
    if n > 0 && depth <= limit then
      match Medium.extent_of t.medium_table medium ~block with
      | None ->
        (* out of range at this level: the chain for this block ends *)
        go ~medium ~block:(block + 1) ~n:(n - 1) ~off:(off + 1) depth
      | Some e ->
        let len = min n (e.Medium.end_block - block + 1) in
        if not e.Medium.skip_local then lookup_level ~medium ~block ~len ~off;
        (match e.Medium.target with
        | Medium.Base -> ()
        | Medium.Underlying { medium = under; offset } ->
          (* recurse for each contiguous run of still-unresolved slots *)
          let i = ref 0 in
          while !i < len do
            if resolved.(off + !i) then incr i
            else begin
              let j = ref !i in
              while !j < len && not resolved.(off + !j) do
                incr j
              done;
              go ~medium:under
                ~block:(block - e.Medium.start_block + offset + !i)
                ~n:(!j - !i) ~off:(off + !i) (depth + 1);
              i := !j
            end
          done);
        go ~medium ~block:(block + len) ~n:(n - len) ~off:(off + len) depth
  in
  go ~medium ~block ~n:nblocks ~off:0 0;
  out

let find_segment t id = Hashtbl.find_opt t.segment_metas id

(* A medium "has blocks" in [lo..hi] iff the block index holds a live fact
   there — the predicate the GC feeds to Medium.shortcut. *)
let medium_has_blocks t ~medium ~lo ~hi =
  Pyramid.exists_live_in_range t.blocks
    ~lo:(Keys.block_key ~medium ~block:lo)
    ~hi:(Keys.block_key ~medium ~block:hi)

(* Run [k] once every sealed segio has finished flushing to the drives.
   Prepend (O(1) per registration); the completion in [start_flush]
   fires the list as stored,
   preserving the firing order of the old append+rev pairing. *)
let when_flushed t k =
  if Queue.is_empty t.flush_queue then Clock.schedule t.clock ~delay:0.0 k
  else t.flush_waiters <- k :: t.flush_waiters

(* ---------- boot-region blob decoding ---------- *)

type boot_blob = {
  bb_frontier : string;
  bb_next_segment : int;
  bb_medium_next : int;
  bb_seq : int64;
  bb_ckpt_seq : int64;
  bb_dir : (string * string * (string * int * int) list) list;
}

let decode_boot s =
  let buf = Bytes.unsafe_of_string s in
  let _v, p = Varint.read buf ~pos:0 in
  let flen, p = Varint.read buf ~pos:p in
  let frontier = Bytes.sub_string buf p flen in
  let p = p + flen in
  let next_segment, p = Varint.read buf ~pos:p in
  let medium_next, p = Varint.read buf ~pos:p in
  let seq, p = Varint.read_i64 buf ~pos:p in
  let ckpt_seq, p = Varint.read_i64 buf ~pos:p in
  let ndirs, p = Varint.read buf ~pos:p in
  let pos = ref p in
  let read_str () =
    let len, p1 = Varint.read buf ~pos:!pos in
    let s = Bytes.sub_string buf p1 len in
    pos := p1 + len;
    s
  in
  let dir =
    List.init ndirs (fun _ ->
        let name = read_str () in
        let ranges = read_str () in
        let nchunks, p1 = Varint.read buf ~pos:!pos in
        pos := p1;
        let chunks =
          List.init nchunks (fun _ ->
              let meta = read_str () in
              let off, p2 = Varint.read buf ~pos:!pos in
              let len, p3 = Varint.read buf ~pos:p2 in
              pos := p3;
              (meta, off, len))
        in
        (name, ranges, chunks))
  in
  {
    bb_frontier = frontier;
    bb_next_segment = next_segment;
    bb_medium_next = medium_next;
    bb_seq = seq;
    bb_ckpt_seq = ckpt_seq;
    bb_dir = dir;
  }

(* Controller death: stop every in-flight flush and queued segio. Called
   by Flash_array.crash after clearing [online]. *)
let halt_device_activity t =
  Hashtbl.iter (fun _ u -> Writer.abort u.writer) t.unflushed

(* Paper 4.3: "the primary controller asynchronously warms the cache of
   the secondary". At failover the spare therefore starts with (most of)
   the primary's read cache instead of a cold one. *)
let warm_cache ~from ~into =
  if into.cfg.secondary_warming then
    Purity_util.Lru.fold
      (fun key data () -> Purity_util.Lru.add into.read_cache key data)
      from.read_cache ()
