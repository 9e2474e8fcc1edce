(* Checkpoints: persist every pyramid as patch blobs in dedicated
   segments and point the boot region at them (Figure 4's "time-bounded
   indexes" stream joining the commit stream). After a checkpoint the
   allocator shrinks its persisted scan set — failover only replays log
   records newer than the checkpoint. *)

open State

type report = {
  patch_bytes : int;
  segments_used : int;
  duration_us : float;
}

(* Chunk size below segment capacity so multiple chunks plus framing fit. *)
let chunk_size t = min (256 * 1024) (Layout.payload_capacity t.layout / 2)

let run t k =
  let start = Clock.now t.clock in
  if not t.online then
    (* A dead controller cannot checkpoint. Don't continue [k] either:
       callers release relocated victims right after a checkpoint returns,
       which must never happen without one. The continuation simply hangs,
       like a flush waiter at a crash — failover abandons it. *)
    ()
  else begin
  (* Quiesce first: once every sealed segio has flushed, its segment-table
     facts are in the pyramids and will be covered by the patches. *)
  seal_current t;
  when_flushed t (fun () ->
      if not t.online then ()
      else begin
      let first_ckpt_segment = t.next_segment_id in
      (* cut point: allocations after this stay in the recovery scan set *)
      let cut = Allocator.allocated_count t.alloc in
      (* seq watermark: every fact at or below this is about to be covered
         by the patches (the flattens below run synchronously, so nothing
         slips in between).  Installed into [t.checkpoint_seq] only once
         the new directory is, so a crash mid-checkpoint leaves the old
         (dir, watermark) pair intact. *)
      let cut_seq = Seqno.current t.seqno in
      let total_bytes = ref 0 in
      let dir =
        List.map
          (fun (_, pyr) ->
            Pyramid.flatten pyr;
            let patch =
              match Pyramid.patches pyr with [] -> Patch.empty | p :: _ -> p
            in
            let blob = Patch.serialize patch in
            total_bytes := !total_bytes + String.length blob;
            let ranges =
              if Pyramid.policy_is_elision pyr then
                Purity_encoding.Ranges.encode (Pyramid.elide_table pyr)
              else ""
            in
            let chunks = ref [] in
            let csize = chunk_size t in
            let off = ref 0 in
            while !off < String.length blob do
              let len = min csize (String.length blob - !off) in
              let seg, seg_off = store_blob t (String.sub blob !off len) in
              chunks := (seg, seg_off, len) :: !chunks;
              off := !off + len
            done;
            (Pyramid.name pyr, ranges, List.rev !chunks))
          t.tables
      in
      (* Flush the checkpoint segments, then write the boot region. *)
      seal_current t;
      when_flushed t (fun () ->
          if not t.online then ()
          else begin
          let resolve_chunks chunks =
            List.map
              (fun (seg_id, off, len) ->
                match Hashtbl.find_opt t.segment_metas seg_id with
                | Some meta -> (Segment.encode_compact meta, off, len)
                | None -> invalid_arg "checkpoint: segment meta missing")
              chunks
          in
          let old_ckpt = t.checkpoint_segments in
          t.checkpoint_seq <- cut_seq;
          t.checkpoint_dir <-
            List.map
              (fun (name, ranges, chunks) -> (name, ranges, resolve_chunks chunks))
              dir;
          t.checkpoint_segments <-
            List.sort_uniq Int.compare
              (List.concat_map (fun (_, _, chunks) -> List.map (fun (s, _, _) -> s) chunks) dir);
          (* shrink the scan set: drop pre-cut allocations, keep post-cut
             ones plus the currently open segio (it will keep receiving
             post-checkpoint log records) *)
          let keep = Allocator.allocated_count t.alloc - cut in
          let extra =
            match t.open_writer with
            | Some w -> Array.to_list (Writer.members w)
            | None -> []
          in
          Allocator.checkpoint_mark t.alloc ~keep ~extra;
          t.boot_generation_written <- Allocator.persist_generation t.alloc;
          Boot_region.write t.boot (encode_boot t) (fun () ->
              if not t.online then ()
                (* crash landed while the boot region was in flight: the
                   dead controller must neither mutate metadata nor let the
                   caller release victims — hang, failover abandons us *)
              else begin
              (* previous checkpoint's segments are now garbage *)
              List.iter
                (fun seg_id ->
                  if not (List.mem seg_id t.checkpoint_segments) then
                    ignore (release_segment t seg_id))
                old_ckpt;
              let segments_used = t.next_segment_id - first_ckpt_segment in
              k
                {
                  patch_bytes = !total_bytes;
                  segments_used;
                  duration_us = Clock.now t.clock -. start;
                }
              end)
          end)
      end)
  end
