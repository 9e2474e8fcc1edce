(* The write path (paper §4.2, Figure 4, §4.6, §4.7):

   application write -> NVRAM commit (durability ack) -> inline dedup ->
   compression into cblocks -> segio append + block-index facts (also
   logged into the segio) -> asynchronous segment flush.

   A write's data is split into <= 32 KiB chunks (cblocks are "sized to
   match application writes, up to 32 KiB"); inline dedup carves verified
   duplicate runs out of each chunk, and only the fresh remainder is
   compressed and stored. *)

open State
module Fact = Purity_pyramid.Fact

type error =
  [ `No_such_volume
  | `Read_only
  | `Out_of_range
  | `Unaligned
  | `Backpressure  (** NVRAM full: the segment writer has fallen behind *)
  | `No_space
  | `Offline ]

(* Byte length of [encode_intent ~medium ~block data] for [len]-byte
   data, computed without building it. *)
let intent_length ~medium ~block ~len =
  1 + Varint.size medium + Varint.size block + Varint.size len + len

let encode_intent ~medium ~block data =
  let buf = Buffer.create (intent_length ~medium ~block ~len:(String.length data)) in
  Buffer.add_char buf 'W';
  Varint.write buf medium;
  Varint.write buf block;
  Varint.write buf (String.length data);
  Buffer.add_string buf data;
  Buffer.contents buf

let decode_intent s =
  let buf = Bytes.unsafe_of_string s in
  if Bytes.length buf = 0 || Bytes.get buf 0 <> 'W' then
    invalid_arg "decode_intent: not a write intent";
  let medium, p = Varint.read buf ~pos:1 in
  let block, p = Varint.read buf ~pos:p in
  let len, p = Varint.read buf ~pos:p in
  if p + len > Bytes.length buf then invalid_arg "decode_intent: truncated";
  (medium, block, Bytes.sub_string buf p len)

(* Record one block-index fact (and its log record). *)
let put_block t ~medium ~block (r : Blockref.t) =
  put t t.blocks ~key:(Keys.block_key ~medium ~block) ~value:(Blockref.encode r)

(* Store one fresh run of blocks as a cblock; returns its home. The
   frame is built in the controller's arena — compression runs in the
   reused LZ scratch and the frame bytes blit from the reused Buffer
   straight into the segio, so storing a block allocates nothing. *)
let[@purity.lint.hotpath] [@purity.lint.allow
                            "hotalloc: the returned blockref is the \
                             call's result — one four-word record per \
                             stored run, handed straight to the block \
                             index"] store_run t data =
  let arena = t.arenas.(0) in
  let frame = arena.Arena.frame in
  Buffer.clear frame;
  let stored_len =
    Cblock.add_frame_into ~scratch:arena.Arena.lz ~compress:t.cfg.compression
      frame data
  in
  let segment, off = store_frame t frame in
  Registry.add t.ws.stored_bytes stored_len;
  { Blockref.segment; off; stored_len; index = 0 }

(* Store a frame already built (by a pool lane) in some lane's arena.
   [store_blob]'s roll-the-segment decision uses the same length the
   serial [store_frame] would, and the frame bytes are the deterministic
   output of [Cblock.add_frame] on the run — so the segio contents are
   byte-identical to the serial path's. *)
let store_prepared t ~frame ~stored_len =
  let segment, off = store_blob t frame in
  Registry.add t.ws.stored_bytes stored_len;
  { Blockref.segment; off; stored_len; index = 0 }

(* Compress the uncovered runs in parallel, one pool lane per contiguous
   chunk of runs, each lane in its own scratch arena. Returns the framed
   cblocks (with their stored lengths) in run order; [None] means stay on
   the serial zero-alloc path. Compression is a pure function of the run
   bytes (the LZ scratch is epoch-stamped), so the frames — and
   everything stored from them — are byte-identical at any lane count. *)
let[@purity.lint.allow
     "escape: lane-disjoint by construction — each task reads its own \
      [runs] entry and [data] slice and writes only [arenas.(lane)]; [t] \
      supplies read-only config, and the CRC/LZ kernel tables it reaches \
      are warmed before fan-out and read-only after"] compress_runs_par t
    data runs =
  let pool = Purity_par.Pool.global () in
  let lanes = Purity_par.Pool.lanes pool in
  let nruns = Array.length runs in
  if lanes <= 1 || nruns <= 1 then None
  else begin
    let arenas = lane_arenas t ~lanes in
    Some
      (Purity_par.Pool.map pool ~tasks:nruns (fun ~lane r ->
           let start, run_blocks = runs.(r) in
           let run = String.sub data (start * block_size) (run_blocks * block_size) in
           let arena = arenas.(lane) in
           let frame = arena.Arena.frame in
           Buffer.clear frame;
           let stored_len =
             Cblock.add_frame_into ~scratch:arena.Arena.lz
               ~compress:t.cfg.compression frame run
           in
           (Buffer.contents frame, stored_len)))
  end

(* Apply one <=32 KiB chunk: dedup the duplicate runs, store the rest. *)
let apply_chunk t ~medium ~first_block data =
  let nblocks = String.length data / block_size in
  let hits = if t.cfg.inline_dedup then Dedup.find_duplicates t.dedup data else [] in
  (* translate hits whose source cblock still exists, outside any segment
     being evacuated; drop the rest *)
  let hits =
    List.filter_map
      (fun (h : Dedup.hit) ->
        match Hashtbl.find_opt t.dedup_locs h.Dedup.src.Dedup.write_id with
        | Some base
          when (Hashtbl.mem t.segment_metas base.Blockref.segment
               || Hashtbl.mem t.unflushed base.Blockref.segment)
               && not (Hashtbl.mem t.evacuating base.Blockref.segment) ->
          Some (h, base)
        | _ -> None)
      hits
  in
  let covered = Array.make nblocks false in
  List.iter
    (fun ((h : Dedup.hit), (base : Blockref.t)) ->
      for i = 0 to h.Dedup.run_blocks - 1 do
        let blk = h.Dedup.at_block + i in
        covered.(blk) <- true;
        put_block t ~medium ~block:(first_block + blk)
          { base with Blockref.index = h.Dedup.src.Dedup.block + i };
        Registry.incr t.ws.dedup_blocks
      done)
    hits;
  (* collect the uncovered runs — [covered] is fully determined above, so
     gathering first and storing after is the same traversal the old
     fused loop made *)
  let runs = ref [] in
  let i = ref 0 in
  while !i < nblocks do
    if covered.(!i) then incr i
    else begin
      let start = !i in
      while !i < nblocks && not covered.(!i) do
        incr i
      done;
      runs := (start, !i - start) :: !runs
    end
  done;
  let runs = Array.of_list (List.rev !runs) in
  (* compress in parallel when a pool is live and there is enough work;
     store serially, in run order, either way *)
  let frames = compress_runs_par t data runs in
  Array.iteri
    (fun r (start, run_blocks) ->
      let run = String.sub data (start * block_size) (run_blocks * block_size) in
      let base =
        match frames with
        | Some fr ->
          let frame, stored_len = fr.(r) in
          store_prepared t ~frame ~stored_len
        | None -> store_run t run
      in
      (* register the fresh run so future writes can dedup against it *)
      if t.cfg.inline_dedup then begin
        let wid = Dedup.register t.dedup run in
        Hashtbl.replace t.dedup_locs wid base
      end;
      for b = 0 to run_blocks - 1 do
        put_block t ~medium ~block:(first_block + start + b)
          { base with Blockref.index = b }
      done)
    runs

let apply_write ?(io_blocks = Cblock.max_logical / block_size) t ~medium ~block data =
  let len = String.length data in
  (* cblocks are "sized to match application writes, up to 32 KiB": chunk
     at the volume's inferred write size so small rereads hit one cblock *)
  let chunk = max block_size (min Cblock.max_logical (io_blocks * block_size)) in
  let off = ref 0 in
  while !off < len do
    let n = min chunk (len - !off) in
    apply_chunk t ~medium ~first_block:(block + (!off / block_size))
      (String.sub data !off n);
    off := !off + n
  done

(* Public entry: write [data] (a multiple of 512 B) at [block] of [volume].
   The callback fires when the write is durable (NVRAM commit complete). *)
let write t ~volume ~block data k =
  let start = Clock.now t.clock in
  let fail e = Clock.schedule t.clock ~delay:0.0 (fun () -> k (Error e)) in
  if not t.online then fail `Offline
  else
    match Stbl.find_opt t.volumes volume with
    | None -> fail `No_such_volume
    | Some { kind = Snapshot; _ } -> fail `Read_only
    | Some v ->
      let len = String.length data in
      if len = 0 || len mod block_size <> 0 then fail `Unaligned
      else if block < 0 || block + (len / block_size) > v.blocks then fail `Out_of_range
      else begin
        observe_write v.observer ~nblocks:(len / block_size);
        match Medium.write_target t.medium_table v.medium ~block with
        | Error `Read_only -> fail `Read_only
        | Error (`Out_of_range | `No_such_medium) -> fail `Out_of_range
        | Ok medium ->
          (* trace the multi-hop write: the NVRAM commit and memtable apply
             are children of one [write] span (segio flush/program spans
             hang off the asynchronous pump instead) *)
          let wspan =
            Span.start t.tracer
              ~tags:[ ("volume", volume); ("bytes", string_of_int len) ]
              "write"
          in
          let commit_span = Span.start t.tracer ~parent:wspan "nvram_commit" in
          (* intents consume sequence numbers like any other fact *)
          let intent_seq = Purity_pyramid.Seqno.next t.seqno in
          let committed = function
            | Error `Full ->
              Span.finish ~tags:[ ("error", "backpressure") ] commit_span;
              Span.finish wspan;
              (* NVRAM drains when segios flush; push the current one out
                 if nothing is already flushing, then report backpressure *)
              if Queue.is_empty t.flush_queue then (try seal_current t with Out_of_space -> ());
              k (Error `Backpressure)
            | Ok () when not t.online ->
              Span.finish ~tags:[ ("error", "offline") ] commit_span;
              Span.finish wspan;
              (* the controller died between commit and apply: the intent
                 is in NVRAM and will replay at failover *)
              k (Error `Offline)
            | Ok () -> (
              Histogram.record t.ws.nvram_commit_us (Clock.now t.clock -. start);
              Span.finish commit_span;
              let apply_span = Span.start t.tracer ~parent:wspan "apply" in
              match
                apply_write ~io_blocks:(inferred_io_blocks v.observer) t ~medium ~block data
              with
              | () ->
                ignore (Queue.pop t.unapplied);
                Span.finish apply_span;
                Span.finish wspan;
                Registry.incr t.ws.app_writes;
                Registry.add t.ws.logical_bytes len;
                Histogram.record t.write_lat (Clock.now t.clock -. start);
                k (Ok ())
              | exception Out_of_space ->
                ignore (Queue.pop t.unapplied);
                Span.finish ~tags:[ ("error", "no_space") ] apply_span;
                Span.finish wspan;
                k (Error `No_space))
          in
          (* a back-pressure retry is refused on size alone: build the
             intent only when the NVRAM will take it *)
          let nv = nvram t in
          if Nvram.fits nv ~payload_len:(intent_length ~medium ~block ~len) then begin
            (* NVRAM completes commits in order, so each completion
               below pops its own position *)
            Queue.add (Nvram.position nv) t.unapplied;
            Nvram.commit nv
              { Nvram.seq = intent_seq; payload = encode_intent ~medium ~block data }
              committed
          end
          else Nvram.refuse nv committed
      end
