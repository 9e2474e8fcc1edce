(* Segment evacuation and the garbage collector (paper §4.5, §4.7,
   §4.10, §5.1). GC, scrub and drive rebuild are one operation: relocate
   a segment's live cblocks, checkpoint, then release the segment. They
   differ only in how they pick victims.

   - exact liveness scan of the block index (the paper keeps approximate
     counters and "fixes them up by issuing additional reads at runtime";
     the scan is those reads);
   - relocation of live cblocks into the current segio, collapsing
     byte-identical cblocks on the way (the background dedup pass);
   - victims' AUs trimmed and returned to the allocator only after a
     checkpoint covers the relocated data and the victims' log records.

   GC picks the live segments with the highest dead ratio (unordered
   log-structured cleaning) and flattens medium trees via shortcuts so
   reads stay within the three-cblock bound; drive rebuild picks every
   segment with a member on the drive; scrub (scrub.ml) picks segments
   with corrupt pages. *)

open State
module I64tbl = Purity_util.Keytbl.I64
module Inttbl = Purity_util.Keytbl.Int
module Xxhash = Purity_util.Xxhash

(* The running totals of one evacuation. *)
type tally = {
  mutable relocated_cblocks : int;
  mutable relocated_bytes : int;
  mutable dedup_hits : int;
  mutable shared_cblocks : int;
}

type report = {
  victims : int list;
  relocated_cblocks : int;
  relocated_bytes : int;
  reclaimed_bytes : int;
  gc_dedup_hits : int;
  shared_cblocks : int;
      (* cblocks with more references than logical blocks (paper 4.7:
         multiply-referenced blocks are less likely to die). Each victim
         relocates its shared cblocks before its other ones, so they land
         next to each other; there is no separate segment for them. *)
  duration_us : float;
}

(* One segment's share of the liveness scan: the stored bytes of its live
   cblocks (each counted once) and its live blocks as (key, blockref),
   last scanned first. *)
type seg_live = {
  cblocks : unit Inttbl.t; (* offsets of the live cblocks *)
  mutable live_bytes : int;
  mutable scanned : (string * Blockref.t) list;
}

(* [scan_seq]: every mapping the scan saw has a seq at or below it. *)
type liveness = { scan_seq : int64; segs : seg_live Inttbl.t }

let liveness t =
  let segs = Inttbl.create 64 in
  Pyramid.iter_live t.blocks (fun ~key ~value ->
      let r = Blockref.decode value in
      let s =
        match Inttbl.find_opt segs r.Blockref.segment with
        | Some s -> s
        | None ->
          let s = { cblocks = Inttbl.create 16; live_bytes = 0; scanned = [] } in
          Inttbl.replace segs r.Blockref.segment s;
          s
      in
      if not (Inttbl.mem s.cblocks r.Blockref.off) then begin
        Inttbl.replace s.cblocks r.Blockref.off ();
        s.live_bytes <- s.live_bytes + r.Blockref.stored_len
      end;
      s.scanned <- (key, r) :: s.scanned);
  { scan_seq = Seqno.current t.seqno; segs }

let live_bytes live (seg_id : int) =
  match Inttbl.find_opt live.segs seg_id with Some s -> s.live_bytes | None -> 0

(* A victim's live cblocks: off -> (stored_len, [(block key, index)]).
   Filled in scan order: the table's iteration order is the relocation
   order, which decides where relocated cblocks land. *)
let cblock_refs live (seg_id : int) =
  let per_seg = Inttbl.create 16 in
  (match Inttbl.find_opt live.segs seg_id with
  | None -> ()
  | Some s ->
    List.iter
      (fun (key, (r : Blockref.t)) ->
        match Inttbl.find_opt per_seg r.Blockref.off with
        | Some (_, refs) -> refs := (key, r.Blockref.index) :: !refs
        | None -> Inttbl.replace per_seg r.Blockref.off (r.Blockref.stored_len, ref [ (key, r.Blockref.index) ]))
      (List.rev s.scanned));
  per_seg

let is_shared (stored_len, refs) = List.length !refs > max 1 (stored_len / 512)

(* Relocate every live cblock of one segment, shared cblocks first;
   calls [k true] when every live cblock was moved (data durability is
   the caller's seal+flush), [k false] if any read failed — the victim
   must then be kept alive, or the surviving references would dangle.

   A block overwritten after the scan (while its cblock's read was in
   flight, say) keeps its new mapping: only references with no fact newer
   than the scan are re-pointed. A merge drops a newer block fact only
   when its medium is elided, which retracts the re-pointed fact too. *)
let relocate_segment t ~live ~content_cache (tally : tally) (seg_id : int) k =
  match Hashtbl.find_opt t.segment_metas seg_id with
  | None -> k true
  | Some meta ->
    let per_seg = cblock_refs live seg_id in
    let entries = Inttbl.fold (fun off v acc -> (off, v) :: acc) per_seg [] in
    let shared, plain = List.partition (fun (_, v) -> is_shared v) entries in
    tally.shared_cblocks <- tally.shared_cblocks + List.length shared;
    let all_ok = ref true in
    let rec go = function
      | [] -> k !all_ok
      | (off, (stored_len, refs)) :: rest ->
        Io.read t.io meta ~off ~len:stored_len (fun result ->
            (match result with
            | Error `Unrecoverable ->
              (* cannot move this cblock right now (too many drives out or
                 busy): keep the victim; a later pass retries *)
              all_ok := false
            | Ok frame -> (
              let refs =
                List.filter
                  (fun (key, _) -> not (Pyramid.has_newer t.blocks key ~than:live.scan_seq))
                  !refs
              in
              (* [store_blob]/[put] raise Out_of_space if the controller
                 died while the read was in flight (dead controllers
                 allocate nothing); the victim is then simply kept *)
              match refs with
              | [] -> ()
              | _ :: _ -> (
                try
                  let data = Bytes.to_string frame in
                  let fingerprint = Xxhash.hash frame ~pos:0 ~len:(Bytes.length frame) in
                  let base =
                    match I64tbl.find_opt content_cache fingerprint with
                    | Some (base, cached) when String.equal cached data ->
                      tally.dedup_hits <- tally.dedup_hits + 1;
                      Registry.incr t.ws.gc_dedup_blocks;
                      base
                    | _ ->
                      let segment, new_off = store_blob t data in
                      let base =
                        { Blockref.segment; off = new_off; stored_len; index = 0 }
                      in
                      I64tbl.replace content_cache fingerprint (base, data);
                      tally.relocated_cblocks <- tally.relocated_cblocks + 1;
                      tally.relocated_bytes <- tally.relocated_bytes + stored_len;
                      base
                  in
                  List.iter
                    (fun (key, index) ->
                      put t t.blocks ~key ~value:(Blockref.encode { base with Blockref.index }))
                    refs
                with Out_of_space -> all_ok := false)));
            go rest)
    in
    go (shared @ plain)

(* Relocate the victims in order and call [k tally emptied], [emptied]
   being the victims whose every live cblock moved, in victim order.
   Until a victim is released (or kept, after a failed relocation) it is
   no inline-dedup source: a write deduplicated into it would map into a
   segment about to be destroyed. *)
let evacuate t ~live ~victims k =
  List.iter (fun seg_id -> Hashtbl.replace t.evacuating seg_id ()) victims;
  let tally : tally =
    { relocated_cblocks = 0; relocated_bytes = 0; dedup_hits = 0; shared_cblocks = 0 }
  in
  let content_cache = I64tbl.create 64 in
  let rec go emptied = function
    | [] -> k tally (List.rev emptied)
    | seg_id :: rest ->
      relocate_segment t ~live ~content_cache tally seg_id (fun ok ->
          if ok then go (seg_id :: emptied) rest
          else begin
            Hashtbl.remove t.evacuating seg_id;
            go emptied rest
          end)
  in
  go [] victims

(* The tail every evacuation ends with. Destroying a segment also
   destroys its header log records, which may hold the only durable copy
   of metadata facts whose NVRAM records were already trimmed: a
   checkpoint must cover them (and persist the relocation facts) before
   the segments go. [k] gets the bytes reclaimed; at a dead controller
   the checkpoint never completes and neither does [k]. *)
let release_after_checkpoint t emptied k =
  Checkpoint.run t (fun _ckpt ->
      let reclaimed = List.fold_left (fun acc seg_id -> acc + release_segment t seg_id) 0 emptied in
      maybe_persist_boot t;
      k reclaimed)

(* Scrub's and rebuild's ending: seal, wait for the relocated data to
   reach the drives, then checkpoint and release (newest first) only if
   some victim was emptied. *)
let settle t emptied k =
  (try seal_current t with Out_of_space -> ());
  when_flushed t (fun () ->
      match emptied with
      | [] -> k ()
      | _ :: _ -> release_after_checkpoint t (List.rev emptied) (fun _ -> k ()))

let flatten_mediums t =
  Medium.shortcut t.medium_table ~has_blocks:(fun ~medium ~lo ~hi ->
      medium_has_blocks t ~medium ~lo ~hi);
  List.iter (fun m -> persist_medium t m) (Medium.live_mediums t.medium_table)

let run ?(min_dead_ratio = 0.25) ?(max_victims = 4) t k =
  let start = Clock.now t.clock in
  (* pass-level telemetry (registration is idempotent, so grabbing the
     handles here keeps them tied to the current controller's registry) *)
  let c_passes = Registry.counter t.tel "gc/passes" in
  let c_victims = Registry.counter t.tel "gc/victim_segments" in
  let c_relocated = Registry.counter t.tel "gc/relocated_cblocks" in
  let c_rel_bytes = Registry.counter t.tel "gc/relocated_bytes" in
  let c_reclaimed = Registry.counter t.tel "gc/reclaimed_bytes" in
  let h_pass_us = Registry.histogram t.tel "gc/pass_us" in
  let gc_span = Span.start t.tracer "gc_pass" in
  let live = liveness t in
  let open_id = match t.open_writer with Some w -> Writer.id w | None -> -1 in
  let protected_ = open_id :: t.checkpoint_segments in
  let candidates =
    Hashtbl.fold
      (fun seg_id (meta : Segment.t) acc ->
        if List.mem seg_id protected_ then acc
        else begin
          let data_bytes = meta.Segment.payload_len in
          if data_bytes = 0 then acc
          else begin
            let lb = live_bytes live seg_id in
            let dead_ratio = 1.0 -. (float_of_int lb /. float_of_int data_bytes) in
            if dead_ratio >= min_dead_ratio then (seg_id, dead_ratio) :: acc else acc
          end
        end)
      t.segment_metas []
  in
  let victims =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) candidates
    |> List.filteri (fun i _ -> i < max_victims)
    |> List.map fst
  in
  evacuate t ~live ~victims (fun (tally : tally) emptied ->
      (* a crash landed between relocation steps: abandon the pass *)
      if t.online then begin
        flatten_mediums t;
        release_after_checkpoint t emptied (fun reclaimed ->
            let duration_us = Clock.now t.clock -. start in
            Registry.incr c_passes;
            Registry.add c_victims (List.length emptied);
            Registry.add c_relocated tally.relocated_cblocks;
            Registry.add c_rel_bytes tally.relocated_bytes;
            Registry.add c_reclaimed reclaimed;
            Histogram.record h_pass_us duration_us;
            Span.finish
              ~tags:
                [
                  ("victims", string_of_int (List.length emptied));
                  ("relocated", string_of_int tally.relocated_cblocks);
                ]
              gc_span;
            k
              {
                victims = emptied;
                relocated_cblocks = tally.relocated_cblocks;
                relocated_bytes = tally.relocated_bytes;
                reclaimed_bytes = reclaimed;
                gc_dedup_hits = tally.dedup_hits;
                shared_cblocks = tally.shared_cblocks;
                duration_us;
              })
      end)

(* Drive rebuild: relocate every segment with a member on [drive],
   restoring full redundancy; [k] gets the number of segments rebuilt. *)
let rebuild_drive t drive k =
  (* flush the open segio first so every segment touching the drive is a
     sealed, relocatable victim *)
  (try seal_current t with Out_of_space -> ());
  when_flushed t (fun () ->
      let victims =
        Hashtbl.fold
          (fun id (meta : Segment.t) acc ->
            let touches =
              Array.exists (fun (m : Segment.member) -> m.Segment.drive = drive) meta.Segment.members
            in
            if touches then id :: acc else acc)
          t.segment_metas []
      in
      evacuate t ~live:(liveness t) ~victims (fun _tally emptied ->
          settle t emptied (fun () -> k (List.length emptied))))
