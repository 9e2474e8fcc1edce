(* The read path: (volume, block range) -> medium chain resolution
   (paper §4.5) -> block references -> coalesced cblock reads through the
   scheduler (read-around-write, reconstruction) -> decode (CRC check and
   decompress) -> copy the requested 512 B slices out. A cblock is decoded
   once while it sits in controller DRAM: the read cache and an unflushed
   segio's memo both hold decoded data, so a hit only copies slices.

   Blocks with no reference anywhere in the chain read as zeros (thin
   provisioning); the paper's note that small reads "generally retrieve a
   single cblock" falls out of cblock sizing, visible in the coalescing
   statistics. *)

open State

type error = [ `No_such_volume | `Out_of_range | `Offline | `Media_failure ]

(* One physical cblock fetch serving several requested blocks. *)
type fetch = {
  ref_ : Blockref.t; (* index field unused here: whole-cblock fetch *)
  mutable slices : (int * int) list; (* (output block position, cblock index) *)
}

let plan t ~medium ~block ~nblocks =
  (* Resolve the whole range in one batched pass (each medium level does
     one lower_bound + walk per patch instead of a binary search per
     block), then group consecutive blocks that live in the same cblock
     into one fetch. *)
  let refs = resolve_range t ~medium ~block ~nblocks in
  let fetches : fetch list ref = ref [] in
  let zeros = ref [] in
  for i = 0 to nblocks - 1 do
    match refs.(i) with
    | None -> zeros := i :: !zeros
    | Some r -> (
      match !fetches with
      | f :: _ when Blockref.same_cblock f.ref_ r ->
        f.slices <- (i, r.Blockref.index) :: f.slices
      | _ -> fetches := { ref_ = r; slices = [ (i, r.Blockref.index) ] } :: !fetches)
  done;
  (List.rev !fetches, !zeros)

(* A stored frame's application data: CRC check, payload copy and
   decompress, done once per cblock fetch. None when the frame is
   corrupt. *)
let decode_frame frame =
  match Cblock.data (fst (Cblock.decode frame ~pos:0)) with
  | data -> Some data
  | exception Invalid_argument _ -> None

(* Copy the requested 512 B slices of a decoded cblock into the read's
   output; false when a slice lies past the cblock's end. *)
let deliver data slices out =
  List.fold_left
    (fun ok (out_block, cb_index) ->
      let src = cb_index * block_size in
      if src + block_size <= String.length data then begin
        Bytes.blit_string data src out (out_block * block_size) block_size;
        ok
      end
      else false)
    true slices

let read t ~volume ~block ~nblocks k =
  let start = Clock.now t.clock in
  let fail e = Clock.schedule t.clock ~delay:0.0 (fun () -> k (Error e)) in
  if not t.online then fail `Offline
  else
    match Stbl.find_opt t.volumes volume with
    | None -> fail `No_such_volume
    | Some v ->
      if nblocks <= 0 || block < 0 || block + nblocks > v.blocks then fail `Out_of_range
      else begin
        let out = Bytes.make (nblocks * block_size) '\000' in
        let fetches, _zeros = plan t ~medium:v.medium ~block ~nblocks in
        let rspan =
          Span.start t.tracer
            ~tags:
              [
                ("volume", volume);
                ("blocks", string_of_int nblocks);
                ("fetches", string_of_int (List.length fetches));
              ]
            "read"
        in
        let pending = ref (List.length fetches) in
        let failed = ref false in
        let finish () =
          if !failed then begin
            Span.finish ~tags:[ ("error", "media_failure") ] rspan;
            k (Error `Media_failure)
          end
          else begin
            Span.finish rspan;
            Histogram.record t.read_lat (Clock.now t.clock -. start);
            k (Ok (Bytes.unsafe_to_string out))
          end
        in
        (* one fetch's cblock data (None: unreadable) reaches the caller *)
        let complete f data =
          (match data with
          | None -> failed := true
          | Some data -> if not (deliver data f.slices out) then failed := true);
          decr pending;
          if !pending = 0 then finish ()
        in
        (* DRAM-speed service: the decoded cblock is at hand *)
        let from_dram f data = Clock.schedule t.clock ~delay:2.0 (fun () -> complete f data) in
        match fetches with
        | [] ->
          (* all-zero read: charge a trivial metadata-only latency *)
          Clock.schedule t.clock ~delay:1.0 finish
        | _ :: _ ->
          List.iter
            (fun f ->
              let r = f.ref_ in
              match Hashtbl.find_opt t.unflushed r.Blockref.segment with
              | Some u -> (
                (* data still in the segio's RAM buffer: decoded once, then
                   served from the segio's own memo until it flushes *)
                match Hashtbl.find_opt u.decoded r.Blockref.off with
                | Some _ as data -> from_dram f data
                | None -> (
                  match
                    Writer.peek_payload u.writer ~off:r.Blockref.off ~len:r.Blockref.stored_len
                  with
                  | None -> complete f None
                  | Some frame ->
                    let data = decode_frame (Bytes.unsafe_of_string frame) in
                    Option.iter (Hashtbl.replace u.decoded r.Blockref.off) data;
                    from_dram f data))
              | None -> (
                let key = read_key ~segment:r.Blockref.segment ~off:r.Blockref.off in
                let cache_on = t.cfg.read_cache_entries > 0 && key <> no_key in
                match if cache_on then Purity_util.Lru.find t.read_cache key else None with
                | Some _ as data ->
                  (* controller-DRAM hit *)
                  Registry.incr t.ws.cache_hits;
                  from_dram f data
                | None -> (
                  Registry.incr t.ws.cache_misses;
                  match find_segment t r.Blockref.segment with
                  | None -> complete f None
                  | Some seg ->
                    Io.read t.io seg ~off:r.Blockref.off ~len:r.Blockref.stored_len
                      (fun result ->
                        let data =
                          match result with
                          | Error `Unrecoverable -> None
                          | Ok frame -> decode_frame frame
                        in
                        (match data with
                        | Some d when cache_on -> Purity_util.Lru.add t.read_cache key d
                        | _ -> ());
                        complete f data))))
            fetches
      end
