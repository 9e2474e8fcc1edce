(* Scrubbing (paper §5.1): "Purity periodically scrubs the underlying
   storage to proactively detect data loss. Worn-out flash leaks charge
   faster than new flash ... periodically scrubbing and rewriting data
   ensures that the worn-out flash is rewritten more frequently than the
   P/E calculations assumed."

   The scrubber reads every member AU of every live segment directly
   (bypassing the read scheduler so latent corruption is actually
   observed) and evacuates any segment with a corrupt page (Gc.evacuate)
   — the rewrite both repairs the copy via Reed-Solomon and resets the
   data's retention clock. *)

open State

type report = {
  segments_checked : int;
  members_read : int;
  corrupt_members : int;
  segments_relocated : int;
  duration_us : float;
}

(* Check a segment's members; true if any read came back corrupt. *)
let check_segment t (meta : Segment.t) k =
  let pending = ref 0 in
  let corrupt = ref 0 in
  let members_read = ref 0 in
  let finish () = k (!corrupt, !members_read) in
  Array.iter
    (fun (m : Segment.member) ->
      let d = Shelf.drive t.shelf m.Segment.drive in
      if Drive.is_online d then begin
        let fill = Drive.au_fill d ~au:m.Segment.au in
        if fill > 0 then begin
          incr pending;
          incr members_read;
          Drive.read d ~au:m.Segment.au ~off:0 ~len:fill (fun result ->
              (match result with Error (`Corrupt _) -> incr corrupt | _ -> ());
              decr pending;
              if !pending = 0 then finish ())
        end
      end)
    meta.Segment.members;
  if !pending = 0 then finish ()

let run t k =
  let start = Clock.now t.clock in
  let c_passes = Registry.counter t.tel "scrub/passes" in
  let c_checked = Registry.counter t.tel "scrub/segments_checked" in
  let c_members = Registry.counter t.tel "scrub/members_read" in
  let c_corrupt = Registry.counter t.tel "scrub/corrupt_members" in
  let c_relocated = Registry.counter t.tel "scrub/segments_relocated" in
  let h_pass_us = Registry.histogram t.tel "scrub/pass_us" in
  let scrub_span = Span.start t.tracer "scrub_pass" in
  let open_id = match t.open_writer with Some w -> Writer.id w | None -> -1 in
  let targets =
    Hashtbl.fold (fun id m acc -> if id = open_id then acc else (id, m) :: acc) t.segment_metas []
  in
  let checked = ref 0 and members = ref 0 and corrupt = ref 0 in
  let to_relocate = ref [] in
  let rec scan = function
    | [] -> relocate ()
    | (seg_id, meta) :: rest ->
      incr checked;
      check_segment t meta (fun (c, reads) ->
          members := !members + reads;
          if c > 0 then begin
            corrupt := !corrupt + c;
            to_relocate := seg_id :: !to_relocate
          end;
          scan rest)
  and relocate () =
    Gc.evacuate t ~live:(Gc.liveness t) ~victims:!to_relocate (fun _tally emptied ->
        (* a crash landed between relocation steps: abandon the pass *)
        if t.online then
          Gc.settle t emptied (fun () ->
              let relocated = List.length emptied in
              let duration_us = Clock.now t.clock -. start in
              Registry.incr c_passes;
              Registry.add c_checked !checked;
              Registry.add c_members !members;
              Registry.add c_corrupt !corrupt;
              Registry.add c_relocated relocated;
              Histogram.record h_pass_us duration_us;
              Span.finish
                ~tags:
                  [
                    ("checked", string_of_int !checked);
                    ("corrupt", string_of_int !corrupt);
                  ]
                scrub_span;
              k
                {
                  segments_checked = !checked;
                  members_read = !members;
                  corrupt_members = !corrupt;
                  segments_relocated = relocated;
                  duration_us;
                }))
  in
  scan targets
