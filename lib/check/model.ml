(* Reference model for the durability contract.

   The model shadows the array's logical state — volumes, snapshots,
   clones, and the bytes behind every block — precisely enough to decide,
   for any read the array serves, whether the bytes are ones the history
   permits.

   Crash uncertainty is the interesting part. An acknowledged write must
   survive a controller crash (NVRAM replay), so a plain crash loses the
   model nothing. NVRAM content loss is different: writes acked since
   their data last reached flushed segments were depending on the lost
   records, so a *subsequent* crash may legitimately revert them. Each
   block is therefore a [cell] carrying its pre-write lineage:

   - [durable]: persisted under a completed flush/checkpoint barrier —
     immune to both crash and NVRAM loss;
   - [fragile]: its NVRAM record was lost while not yet durable — the
     next crash may revert it;
   - [maybe]: a crash (or a torn write) actually made it ambiguous — a
     read may return this value or anything down the [parent] chain, and
     the first read to observe the block collapses the ambiguity.

   Cells are shared by reference between a volume and its snapshots and
   clones, so a collapse observed through one view constrains the others
   — which is also what makes "snapshots stay frozen" checkable: once a
   snapshot block collapses, any later disagreement is a violation. *)

type token = Zero | Data of { wid : int; idx : int }

type cell = {
  mutable v : token;
  mutable durable : bool;
  mutable fragile : bool;
  mutable maybe : bool;
  mutable parent : cell option;
}

type kind = Volume | Snapshot

type view = {
  kind : kind;
  mutable cells : cell array;
  mutable ns_fragile : bool;
      (* a namespace fact of this view (creation, resize, lineage) was in
         NVRAM records that got lost: the next crash may undo it *)
  mutable ns_durable : bool;
  mutable size_floor : int;  (* size at the last completed barrier *)
}

type tombstone = {
  t_view : view;
  mutable t_fragile : bool;  (* the delete record itself was lost *)
}

type t = {
  seed : int64;
  block_size : int;
  views : (string, view) Hashtbl.t;
  tombs : (string, tombstone) Hashtbl.t;
  zero_cell : cell;
  renders : (token, string) Hashtbl.t;
  mutable acked_writes : int;  (* Ok-acked app writes since last failover *)
}

let create ?(seed = 0L) ~block_size () =
  {
    seed;
    block_size;
    views = Hashtbl.create 16;
    tombs = Hashtbl.create 16;
    zero_cell = { v = Zero; durable = true; fragile = false; maybe = false; parent = None };
    renders = Hashtbl.create 256;
    acked_writes = 0;
  }

(* ---------- payloads ---------- *)

(* The bytes of write [wid], block [idx] are a pure function of the plan
   seed — not of any execution-time stream — so dropping events during
   trace shrinking never changes the payloads of the events that remain.
   The identity is embedded verbatim in the head of the block, making
   payloads collision-free and letting a failure report name the write a
   wrong byte actually came from. wid 0 renders as zeros (a deliberate
   zero-write, indistinguishable from unwritten space — as it should be). *)
let render t tok =
  match Hashtbl.find_opt t.renders tok with
  | Some s -> s
  | None ->
    let s =
      match tok with
      | Zero | Data { wid = 0; _ } -> String.make t.block_size '\000'
      | Data { wid; idx } ->
        let b = Bytes.create t.block_size in
        let mix =
          Int64.logxor t.seed (Int64.of_int (((wid + 1) * 0x10003) + idx))
        in
        let rng = Purity_util.Rng.create ~seed:mix in
        Purity_util.Rng.fill_bytes rng b ~pos:0 ~len:t.block_size;
        Bytes.set_int32_le b 0 (Int32.of_int wid);
        Bytes.set_int32_le b 4 (Int32.of_int idx);
        Bytes.unsafe_to_string b
    in
    Hashtbl.replace t.renders tok s;
    s

let payload t ~wid ~nblocks =
  String.concat ""
    (List.init nblocks (fun idx -> render t (Data { wid; idx })))

let describe_token = function
  | Zero -> "zeros"
  | Data { wid; idx } -> Printf.sprintf "write#%d+%d" wid idx

(* Best-effort naming of bytes the model did not expect, using the
   embedded identity. *)
let describe_bytes t s =
  if s = String.make t.block_size '\000' then "zeros"
  else if String.length s >= 8 then
    let wid = Int32.to_int (String.get_int32_le s 0) in
    let idx = Int32.to_int (String.get_int32_le s 4) in
    if wid > 0 && wid < 1_000_000 && idx >= 0 && idx < 65536
       && s = render t (Data { wid; idx })
    then Printf.sprintf "bytes of write#%d+%d" wid idx
    else "unrecognised bytes"
  else "unrecognised bytes"

(* ---------- namespace ---------- *)

let find t name = Hashtbl.find_opt t.views name
let exists t name = Hashtbl.mem t.views name

let kind t name =
  match find t name with
  | Some v -> Some (match v.kind with Volume -> `Volume | Snapshot -> `Snapshot)
  | None -> None

let blocks t name = Option.map (fun v -> Array.length v.cells) (find t name)

let listing t =
  Hashtbl.fold
    (fun name v acc ->
      ( name,
        (match v.kind with Volume -> `Volume | Snapshot -> `Snapshot),
        Array.length v.cells )
      :: acc)
    t.views []
  |> List.sort compare

let create_volume t name ~blocks =
  Hashtbl.replace t.views name
    {
      kind = Volume;
      cells = Array.make blocks t.zero_cell;
      ns_fragile = false;
      ns_durable = false;
      size_floor = blocks;
    }

let delete t name =
  match Hashtbl.find_opt t.views name with
  | None -> ()
  | Some v ->
    Hashtbl.remove t.views name;
    Hashtbl.replace t.tombs name { t_view = v; t_fragile = false }

let resize_volume t name ~blocks =
  match find t name with
  | None -> ()
  | Some v ->
    let old = Array.length v.cells in
    if blocks > old then begin
      let cells = Array.make blocks t.zero_cell in
      Array.blit v.cells 0 cells 0 old;
      v.cells <- cells
    end

let snapshot t ~volume ~snap =
  match find t volume with
  | None -> ()
  | Some v ->
    Hashtbl.replace t.views snap
      {
        kind = Snapshot;
        cells = Array.copy v.cells;
        ns_fragile = false;
        ns_durable = false;
        size_floor = Array.length v.cells;
      }

let clone t ~snapshot ~volume =
  match find t snapshot with
  | None -> ()
  | Some s ->
    Hashtbl.replace t.views volume
      {
        kind = Volume;
        cells = Array.copy s.cells;
        ns_fragile = false;
        ns_durable = false;
        size_floor = Array.length s.cells;
      }

(* ---------- data ---------- *)

let write t ~view ~block ~wid ~nblocks ~acked =
  match find t view with
  | None -> ()
  | Some v ->
    if acked then t.acked_writes <- t.acked_writes + 1;
    for j = 0 to nblocks - 1 do
      let old = v.cells.(block + j) in
      v.cells.(block + j) <-
        {
          v = Data { wid; idx = j };
          durable = false;
          fragile = false;
          (* an unacked outcome (controller died mid-write, or the write
             tore on allocation failure) is ambiguous from the start *)
          maybe = not acked;
          parent = Some old;
        }
    done

let candidates cell =
  let rec go c acc =
    let acc = c.v :: acc in
    if c.maybe then
      match c.parent with
      | Some p -> go p acc
      | None -> Zero :: acc (* defensive: accept the empty history *)
    else acc
  in
  List.rev (go cell [])

let check_read t ~view ~block ~nblocks data =
  match find t view with
  | None -> Error (Printf.sprintf "read of unknown view %s returned data" view)
  | Some v ->
    if String.length data <> nblocks * t.block_size then
      Error
        (Printf.sprintf "read %s[%d..%d]: got %d bytes, wanted %d" view block
           (block + nblocks - 1) (String.length data) (nblocks * t.block_size))
    else begin
      let violation = ref None in
      (try
         for j = 0 to nblocks - 1 do
           let got = String.sub data (j * t.block_size) t.block_size in
           let cell = v.cells.(block + j) in
           let cands = candidates cell in
           match List.find_opt (fun c -> render t c = got) cands with
           | Some c ->
             (* observation collapses the ambiguity — for every view
                sharing this cell, including frozen snapshots *)
             cell.v <- c;
             cell.maybe <- false
           | None ->
             violation :=
               Some
                 (Printf.sprintf "%s[%d]: expected %s, got %s" view (block + j)
                    (String.concat " or " (List.map describe_token cands))
                    (describe_bytes t got));
             raise Exit
         done
       with Exit -> ());
      match !violation with Some msg -> Error msg | None -> Ok ()
    end

(* ---------- fault transitions ---------- *)

let iter_cells t f =
  let seen_view v = Array.iter f v.cells in
  Hashtbl.iter (fun _ v -> seen_view v) t.views;
  Hashtbl.iter (fun _ tb -> seen_view tb.t_view) t.tombs

let nvram_lost t =
  iter_cells t (fun c -> if not c.durable then c.fragile <- true);
  Hashtbl.iter
    (fun _ v -> if not v.ns_durable then v.ns_fragile <- true)
    t.views;
  Hashtbl.iter (fun _ tb -> tb.t_fragile <- true) t.tombs

let crashed t =
  iter_cells t (fun c ->
      if c.fragile then begin
        c.fragile <- false;
        c.maybe <- true
      end)

(* A flush or checkpoint completed with the controller up: everything the
   model has seen is now in flushed segments, beyond the reach of both
   crash and NVRAM loss. Ambiguity from *past* crashes persists — the
   array's current value is durable, but we still don't know which
   candidate it is until a read tells us. *)
let stabilized t =
  iter_cells t (fun c ->
      c.durable <- true;
      c.fragile <- false;
      if not c.maybe then c.parent <- None);
  Hashtbl.iter
    (fun _ v ->
      v.ns_durable <- true;
      v.ns_fragile <- false;
      v.size_floor <- Array.length v.cells)
    t.views;
  Hashtbl.reset t.tombs

(* Post-failover reconciliation: the array's volume listing is ground
   truth for everything the model holds only uncertainly. Certain state
   must match exactly — a missing volume, a resurrected one, or a size
   the history cannot produce is a violation. *)
let reconcile t arr_listing =
  t.acked_writes <- 0;
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, akind, ablocks) ->
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt t.views name with
      | Some v ->
        let mkind = match v.kind with Volume -> `Volume | Snapshot -> `Snapshot in
        if mkind <> akind then
          fail (Printf.sprintf "%s changed kind across failover" name)
        else begin
          let len = Array.length v.cells in
          if ablocks = len then ()
          else if v.ns_fragile && ablocks >= v.size_floor && ablocks < len then
            (* a fragile resize was lost with the NVRAM records: accept
               the reverted size and forget the truncated tail *)
            v.cells <- Array.sub v.cells 0 ablocks
          else
            fail
              (Printf.sprintf "%s is %d blocks after failover, model has %d (floor %d)"
                 name ablocks len v.size_floor);
          (* it survived this crash; recovery re-logged its facts, so it
             is crash-safe again until the next NVRAM loss *)
          v.ns_fragile <- false
        end
      | None -> (
        match Hashtbl.find_opt t.tombs name with
        | Some tb when tb.t_fragile ->
          (* the delete itself was lost: the view legitimately returns,
             with every non-durable block back in doubt *)
          Array.iter
            (fun c -> if not c.durable then c.maybe <- true)
            tb.t_view.cells;
          tb.t_view.ns_fragile <- false;
          Hashtbl.remove t.tombs name;
          Hashtbl.replace t.views name tb.t_view
        | Some _ -> fail (Printf.sprintf "deleted view %s resurrected by failover" name)
        | None -> fail (Printf.sprintf "failover invented view %s" name)))
    arr_listing;
  Hashtbl.iter
    (fun name (v : view) ->
      if not (Hashtbl.mem seen name) then
        if v.ns_fragile then Hashtbl.remove t.views name
        else fail (Printf.sprintf "view %s lost by failover" name))
    (Hashtbl.copy t.views);
  Hashtbl.reset t.tombs;
  match !err with Some msg -> Error msg | None -> Ok ()

let acked_writes t = t.acked_writes
