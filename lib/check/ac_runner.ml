(* The stretched-pod system for {!Scenario}: executes an {!Ac_plan}
   against a real pod — two full simulated arrays, the lossy
   interconnect, the mediator — while {!Ac_model} shadows every write's
   outcome. The execution digest folds final content, counters and the
   simulated clock.

   The final audit heals every fault, drives a failback, then reads
   every block of every stretched volume from BOTH arrays directly
   (below the front door). The model requires the two arrays to agree
   block-for-block — first observation pins the value, the second array
   must match — which is the divergence check; and an acked write is its
   cell's only candidate, which is the lost-ack check. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Ac = Purity_activecluster.Activecluster
module Link = Purity_activecluster.Link
module Mediator = Purity_activecluster.Mediator
module Acm = Ac_model

open Scenario

type ctx = {
  clock : Clock.t;
  ac : Ac.t;
  model : Acm.t;
  vols : (string * int) list;
  mutable crashed : Ac.side list;
  mutable digest : int;
}

let mix ctx v = ctx.digest <- Scenario.mix ctx.digest v

(* No outstanding fault and the pod in sync: I/O has no excuse to fail. *)
let healthy ctx =
  Ac.status ctx.ac = Ac.Sync
  && ctx.crashed = []
  && Link.up (Ac.link ctx.ac)
  && Mediator.reachable (Ac.mediator ctx.ac)

let in_sync ctx = Ac.status ctx.ac = Ac.Sync

let apply_fault ctx (fault : Ac_plan.fault) =
  match fault with
  | Ac_plan.Cut_link -> Ac.cut_link ctx.ac
  | Ac_plan.Heal_link -> Ac.heal_link ctx.ac
  | Ac_plan.Lose_mediator -> Ac.lose_mediator ctx.ac
  | Ac_plan.Restore_mediator -> Ac.restore_mediator ctx.ac
  | Ac_plan.Crash s ->
    Ac.crash_side ctx.ac s;
    if not (List.mem s ctx.crashed) then ctx.crashed <- s :: ctx.crashed
  | Ac_plan.Crash_both ->
    Ac.crash_side ctx.ac A;
    Ac.crash_side ctx.ac B;
    ctx.crashed <- [ A; B ]

let exec_op ctx (op : Ac_plan.op) =
  match op with
  | Ac_plan.Write { side; view; block; nblocks; wid } -> (
    let data = Acm.payload ctx.model ~wid ~nblocks in
    match await ctx.clock (fun k -> Ac.write ctx.ac ~prefer:side ~volume:view ~block data k) with
    | None ->
      (* never completed (e.g. the origin died under it): not acked *)
      Acm.write_result ctx.model ~view ~block ~nblocks ~wid ~acked:false ~in_sync:false
    | Some (Ok ()) ->
      Acm.write_result ctx.model ~view ~block ~nblocks ~wid ~acked:true
        ~in_sync:(in_sync ctx)
    | Some (Error `Unavailable) when healthy ctx ->
      raise (Violation (Printf.sprintf "write#%d Unavailable on a healthy pod" wid))
    | Some (Error (`No_such_volume | `Out_of_range | `Unaligned)) ->
      raise (Violation (Printf.sprintf "write#%d rejected as malformed" wid))
    | Some (Error (`Unavailable | `No_space | `Backpressure)) ->
      (* not acked; the blocks may be torn on either side *)
      Acm.write_result ctx.model ~view ~block ~nblocks ~wid ~acked:false ~in_sync:false)
  | Ac_plan.Write_racing { view; block; nblocks; wid_a; wid_b } ->
    (* both writes enter before the clock runs: their mirrors genuinely
       cross on the link *)
    let da = Acm.payload ctx.model ~wid:wid_a ~nblocks in
    let db = Acm.payload ctx.model ~wid:wid_b ~nblocks in
    let ra = ref None and rb = ref None in
    Ac.write ctx.ac ~prefer:A ~volume:view ~block da (fun r -> ra := Some r);
    Ac.write ctx.ac ~prefer:B ~volume:view ~block db (fun r -> rb := Some r);
    Clock.run ctx.clock;
    let acked r = match !r with Some (Ok ()) -> true | _ -> false in
    Acm.write_racing_result ctx.model ~view ~block ~nblocks ~wid_a ~wid_b
      ~acked_a:(acked ra) ~acked_b:(acked rb) ~in_sync:(in_sync ctx)
  | Ac_plan.Read { side; view; block; nblocks } -> (
    match await ctx.clock (fun k -> Ac.read ctx.ac ~prefer:side ~volume:view ~block ~nblocks k) with
    | None -> ()
    | Some (Ok (data, served)) -> (
      match Acm.check_read ctx.model ~side:served ~view ~block ~nblocks data with
      | Ok () -> ()
      | Error msg -> raise (Violation msg))
    | Some (Error `Unavailable) ->
      if healthy ctx then raise (Violation "read Unavailable on a healthy pod")
    | Some (Error _) ->
      raise (Violation (Printf.sprintf "spurious error reading %s[%d]" view block)))
  | Ac_plan.Settle -> (
    match await ctx.clock (fun k -> Ac.settle ctx.ac k) with
    | Some (Ac.Sync, Some s) -> Acm.settled ctx.model ~survivor:s
    | Some (_, _) | None -> ())
  | Ac_plan.Recover s -> (
    match await ctx.clock (fun k -> Ac.recover_side ctx.ac s k) with
    | Some () -> ctx.crashed <- List.filter (( <> ) s) ctx.crashed
    | None -> raise (Violation ("recovery of array " ^ Ac.side_name s ^ " never completed")))

let exec_event ctx = dispatch ctx.clock ~op:(exec_op ctx) ~fault:(apply_fault ctx)

(* ---------- final audit ---------- *)

(* Read a whole volume from one array, below the pod's front door, and
   hold it to the model. After a successful failback every cell is
   converged, so A's observation pins the value B must reproduce. *)
let audit_array ctx side name blocks =
  let arr = Ac.array ctx.ac side in
  let chunk = 16 in
  let block = ref 0 in
  while !block < blocks do
    let nblocks = min chunk (blocks - !block) in
    (match await ctx.clock (fun k -> Fa.read arr ~volume:name ~block:!block ~nblocks k) with
    | Some (Ok data) -> (
      mix ctx data;
      match Acm.check_read ctx.model ~side ~view:name ~block:!block ~nblocks data with
      | Ok () -> ()
      | Error msg -> raise (Violation msg))
    | Some (Error _) | None ->
      raise
        (Violation
           (Printf.sprintf "final audit: array %s failed reading %s[%d]" (Ac.side_name side)
              name !block)));
    block := !block + nblocks
  done

let finalize ctx =
  Clock.run ctx.clock;
  (* heal the world, then fail back *)
  Ac.heal_link ctx.ac;
  Ac.restore_mediator ctx.ac;
  List.iter
    (fun s -> ignore (await ctx.clock (fun k -> Ac.recover_side ctx.ac s k)))
    [ Ac.A; Ac.B ];
  ctx.crashed <- [];
  let rec drive attempts =
    match await ctx.clock (fun k -> Ac.settle ctx.ac k) with
    | Some (Ac.Sync, sv) -> (
      match sv with Some s -> Acm.settled ctx.model ~survivor:s | None -> ())
    | (Some _ | None) when attempts > 0 -> drive (attempts - 1)
    | Some (st, _) ->
      raise
        (Violation
           ("pod failed to return to sync after all faults healed: " ^ Ac.status_name st))
    | None -> raise (Violation "settle never completed")
  in
  drive 2;
  (* safety of the mediation history itself *)
  (match Mediator.audit (Ac.mediator ctx.ac) with
  | Ok () -> ()
  | Error msg -> raise (Violation msg));
  if Fa.is_fenced (Ac.array ctx.ac A) || Fa.is_fenced (Ac.array ctx.ac B) then
    raise (Violation "an array is still fenced after failback");
  (* divergence / lost-ack audit: every block, both arrays *)
  List.iter
    (fun (name, blocks) ->
      audit_array ctx A name blocks;
      audit_array ctx B name blocks)
    ctx.vols;
  (* fold the pod's externally visible end state into the replay digest *)
  let c = Ac.counters ctx.ac in
  mix ctx
    ( c.Ac.mirror_writes, c.Ac.mirror_acked, c.Ac.mirror_timeouts,
      c.Ac.mediation_requests, c.Ac.mediation_grants, c.Ac.mediation_denials,
      c.Ac.solo_writes, c.Ac.resync_blocks );
  let ls = Link.stats (Ac.link ctx.ac) in
  mix ctx (ls.Link.sent, ls.Link.delivered, ls.Link.dropped_loss, ls.Link.dropped_cut);
  mix ctx (List.length (Mediator.events (Ac.mediator ctx.ac)));
  mix ctx (int_of_float (Clock.now ctx.clock))

include Scenario.Make (struct
  include Ac_plan

  type config = Fa.config
  type nonrec ctx = ctx

  let kind = "activecluster"
  let default_config = Runner.default_config

  let setup config (plan : Ac_plan.t) =
    let clock = Clock.create () in
    let a = Fa.create ~config ~clock () in
    let b = Fa.create ~config ~clock () in
    let ac = Ac.create ~a ~b ~pod:"pod0" () in
    let model = Acm.create ~seed:plan.Ac_plan.seed ~block_size:Fa.block_size () in
    List.iter
      (fun (name, blocks) ->
        match Ac.create_stretched ac name ~blocks with
        | Ok () -> Acm.create_volume model name ~blocks
        | Error _ -> raise (Violation ("failed to create stretched volume " ^ name)))
      plan.Ac_plan.vols;
    { clock; ac; model; vols = plan.Ac_plan.vols; crashed = []; digest = 0 }

  let exec_event = exec_event
  let audit = finalize
  let digest ctx = ctx.digest
end)
