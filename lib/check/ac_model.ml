(* Two-array reference model for the ActiveCluster contract.

   The single-array model ({!Model}) answers "may this read return these
   bytes?" for one durability timeline. A stretched pod needs a wider
   question: two arrays serve the same blocks, concurrent writes from
   opposite sides may be serialized either way, a partition lets exactly
   one side keep serving, and a failback must reconverge the pair. The
   contract this model enforces:

   - an acknowledged write while the pod is in sync is on BOTH arrays
     and can never be lost or reverted (lost-ack detection);
   - an acknowledged write while one side serves solo is on that side
     and must survive the failback (the survivor's bytes win);
   - concurrent writes to the same block may resolve to either writer —
     but to the SAME writer on both arrays (divergence detection);
   - within one array, an observed value can only change when a write,
     a race resolution, or a reconciliation permits it.

   Each block is a cell holding the candidate value set plus per-side
   observations. While the pair is converged a single observation (from
   either side) collapses the cell globally — so reading block 7 as
   write#12 on array A and later as write#9 on array B is a violation.
   While diverged, each side collapses independently; [settled] (a
   completed failback) declares the survivor's view global again.

   Payload rendering is delegated to an embedded {!Model.t}: the same
   seeded, self-identifying block bytes, so failure reports can name the
   exact write a wrong byte came from. *)

type side = Purity_activecluster.Mediator.side = A | B

let side_name = Purity_activecluster.Mediator.side_name

type cell = {
  mutable cands : Model.token list;  (* values the history permits *)
  mutable obs_a : Model.token option;  (* what array A was seen to hold *)
  mutable obs_b : Model.token option;
  mutable converged : bool;  (* both arrays guaranteed identical *)
}

type t = {
  oracle : Model.t;  (* payload render/describe only; no cells of its own *)
  views : (string, cell array) Hashtbl.t;
  block_size : int;
}

let create ~seed ~block_size () =
  {
    oracle = Model.create ~seed ~block_size ();
    views = Hashtbl.create 8;
    block_size;
  }

let payload t ~wid ~nblocks = Model.payload t.oracle ~wid ~nblocks

let create_volume t name ~blocks =
  let mk _ = { cands = [ Model.Zero ]; obs_a = None; obs_b = None; converged = true } in
  Hashtbl.replace t.views name (Array.init blocks mk)

let cells_of t view block nblocks =
  match Hashtbl.find_opt t.views view with
  | None -> None
  | Some cells ->
    if block < 0 || block + nblocks > Array.length cells then None
    else Some cells

(* An acked in-sync write: one value, both arrays, irrevocable. An acked
   solo write: one value, not yet on the peer. An unacked write: the new
   value joins the old candidates — the write may or may not have landed
   on either side. *)
let write_result t ~view ~block ~nblocks ~wid ~acked ~in_sync =
  match cells_of t view block nblocks with
  | None -> ()
  | Some cells ->
    for j = 0 to nblocks - 1 do
      let tok = Model.Data { wid; idx = j } in
      let c = cells.(block + j) in
      if acked then
        cells.(block + j) <-
          { cands = [ tok ]; obs_a = None; obs_b = None; converged = in_sync }
      else begin
        (* the old observations stay valid candidates; fold them in *)
        let olds =
          List.sort_uniq compare
            (c.cands
            @ (match c.obs_a with Some o -> [ o ] | None -> [])
            @ (match c.obs_b with Some o -> [ o ] | None -> []))
        in
        cells.(block + j) <-
          { cands = tok :: olds; obs_a = None; obs_b = None; converged = false }
      end
    done

(* Two racing writes to the same range, one from each side. Last-writer-
   wins may pick either, so both are candidates; if both were acked and
   the pod stayed in sync, the arrays agree on ONE of them (collapsed by
   the first read). If neither was acked the old value remains possible
   too. *)
let write_racing_result t ~view ~block ~nblocks ~wid_a ~wid_b ~acked_a ~acked_b ~in_sync =
  match cells_of t view block nblocks with
  | None -> ()
  | Some cells ->
    for j = 0 to nblocks - 1 do
      let ta = Model.Data { wid = wid_a; idx = j } in
      let tb = Model.Data { wid = wid_b; idx = j } in
      let c = cells.(block + j) in
      let olds =
        if acked_a || acked_b then []
        else
          List.sort_uniq compare
            (c.cands
            @ (match c.obs_a with Some o -> [ o ] | None -> [])
            @ (match c.obs_b with Some o -> [ o ] | None -> []))
      in
      cells.(block + j) <-
        {
          cands = ta :: tb :: olds;
          obs_a = None;
          obs_b = None;
          converged = acked_a && acked_b && in_sync;
        }
    done

let obs c = function A -> c.obs_a | B -> c.obs_b

let set_obs c side tok =
  match side with A -> c.obs_a <- Some tok | B -> c.obs_b <- Some tok

(* Audit bytes array [side] returned for a range. A converged cell
   collapses globally on first observation: both arrays are then pinned
   to that value, which is exactly what catches divergence (the other
   array disagreeing) and lost acks (the acked value being the only
   candidate). A diverged cell collapses per side. *)
let check_read t ~side ~view ~block ~nblocks data =
  match cells_of t view block nblocks with
  | None -> Error (Printf.sprintf "read of unknown range %s[%d..%d]" view block (block + nblocks - 1))
  | Some cells ->
    if String.length data <> nblocks * t.block_size then
      Error
        (Printf.sprintf "read %s[%d..%d] on %s: got %d bytes, wanted %d" view block
           (block + nblocks - 1) (side_name side) (String.length data)
           (nblocks * t.block_size))
    else begin
      let violation = ref None in
      (try
         for j = 0 to nblocks - 1 do
           let got = String.sub data (j * t.block_size) t.block_size in
           let c = cells.(block + j) in
           let fail expected =
             violation :=
               Some
                 (Printf.sprintf "%s[%d] on array %s: expected %s, got %s" view (block + j)
                    (side_name side) expected
                    (Model.describe_bytes t.oracle got));
             raise Exit
           in
           match obs c side with
           | Some tok ->
             if Model.render t.oracle tok <> got then fail (Model.describe_token tok)
           | None -> (
             match List.find_opt (fun tok -> Model.render t.oracle tok = got) c.cands with
             | Some tok ->
               if c.converged then begin
                 c.cands <- [ tok ];
                 c.obs_a <- Some tok;
                 c.obs_b <- Some tok
               end
               else set_obs c side tok
             | None ->
               fail (String.concat " or " (List.map Model.describe_token c.cands)))
         done
       with Exit -> ());
      match !violation with Some msg -> Error msg | None -> Ok ()
    end

(* A failback completed with [survivor]'s content authoritative: every
   diverged cell becomes converged, pinned to whatever the survivor was
   last seen to hold (or still ambiguous, globally, if never read). *)
let settled t ~survivor =
  Hashtbl.iter
    (fun _ cells ->
      Array.iter
        (fun c ->
          if not c.converged then begin
            (match obs c survivor with Some tok -> c.cands <- [ tok ] | None -> ());
            c.converged <- true;
            c.obs_a <- None;
            c.obs_b <- None
          end)
        cells)
    t.views

let volumes t =
  Hashtbl.fold (fun name cells acc -> (name, Array.length cells) :: acc) t.views []
  |> List.sort compare
