(* Fault plans for the ActiveCluster torture suite: writes and reads
   landing on a chosen side, racing writes landing on both at once, link
   partitions, mediator loss, single and double array crashes,
   recoveries and settles (failback attempts).

   The generator emits recipes rather than isolated faults — a cut link
   with writes behind it so the mediation race actually runs, a timed
   cut armed to land in the middle of a write, a crash with traffic on
   the surviving side — and always appends a compensating tail (heal,
   restore, recover, settle) so every scenario ends in a state the final
   audit can reach. *)

module Rng = Purity_util.Rng

type side = Purity_activecluster.Mediator.side = A | B

let side_name = Purity_activecluster.Mediator.side_name

type fault =
  | Cut_link
  | Heal_link
  | Lose_mediator
  | Restore_mediator
  | Crash of side
  | Crash_both

type op =
  | Write of { side : side; view : string; block : int; nblocks : int; wid : int }
  | Write_racing of { view : string; block : int; nblocks : int; wid_a : int; wid_b : int }
      (* issued concurrently, one from each side, same range: the LWW
         mirror protocol must make both arrays agree on one winner *)
  | Read of { side : side; view : string; block : int; nblocks : int }
  | Settle  (* drive the pod toward the healthiest reachable status *)
  | Recover of side

(* the shared scenario event, re-exported so its constructors read
   [Ac_plan.Op], ...; a timed cut fires mid-way through whatever runs
   next — the straddling-write scenarios *)
type ('op, 'fault) scenario_event = ('op, 'fault) Scenario.event =
  | Op of 'op
  | Fault of 'fault
  | Timed of { delay_us : float; fault : 'fault }

type event = (op, fault) scenario_event

type t = {
  seed : int64;
  vols : (string * int) list;  (* stretched volumes the runner pre-creates *)
  events : event list;
}

let seed t = t.seed
let events t = t.events
let with_events t events = { t with events }

(* ---------- pretty-printing (failure reports) ---------- *)

let pp_fault ppf = function
  | Cut_link -> Format.fprintf ppf "cut replication link"
  | Heal_link -> Format.fprintf ppf "heal replication link"
  | Lose_mediator -> Format.fprintf ppf "lose mediator"
  | Restore_mediator -> Format.fprintf ppf "restore mediator"
  | Crash s -> Format.fprintf ppf "crash array %s" (side_name s)
  | Crash_both -> Format.fprintf ppf "crash both arrays"

let pp_op ppf = function
  | Write { side; view; block; nblocks; wid } ->
    Format.fprintf ppf "write#%d %s[%d..%d] via %s" wid view block
      (block + nblocks - 1) (side_name side)
  | Write_racing { view; block; nblocks; wid_a; wid_b } ->
    Format.fprintf ppf "race write#%d(A) vs write#%d(B) on %s[%d..%d]" wid_a wid_b view
      block (block + nblocks - 1)
  | Read { side; view; block; nblocks } ->
    Format.fprintf ppf "read %s[%d..%d] via %s" view block (block + nblocks - 1)
      (side_name side)
  | Settle -> Format.fprintf ppf "settle"
  | Recover s -> Format.fprintf ppf "recover array %s" (side_name s)

let pp ppf { seed; vols; events } =
  Format.fprintf ppf "@[<v>seed %Ld, vols [%s], %d events:@,%a@]" seed
    (String.concat "; " (List.map (fun (n, b) -> Printf.sprintf "%s:%d" n b) vols))
    (List.length events) (Scenario.pp_events pp_op pp_fault) events

(* ---------- generation ---------- *)

type gen_config = {
  steps : int;  (** generation rounds; recipes emit several events *)
  vols : int;  (** stretched volumes *)
  vol_blocks : int;
  io_blocks : int;  (** nominal write size in 512 B blocks *)
}

let default_gen = { steps = 30; vols = 2; vol_blocks = 192; io_blocks = 8 }

let generate ?(cfg = default_gen) seed =
  let rng = Rng.create ~seed in
  let vols =
    List.init (max 1 cfg.vols) (fun i ->
        (Printf.sprintf "p%d" i, cfg.vol_blocks / 2 * (1 + Rng.int rng 2)))
  in
  let rev_events = ref [] in
  let emit e = rev_events := e :: !rev_events in
  let wid_ctr = ref 0 in
  let fresh_wid () =
    incr wid_ctr;
    !wid_ctr
  in
  let any_side () = if Rng.bool rng then A else B in
  let range () =
    let view, blocks = List.nth vols (Rng.int rng (List.length vols)) in
    let nblocks = min blocks (1 + Rng.int rng cfg.io_blocks) in
    let block = Rng.int rng (blocks - nblocks + 1) in
    (view, block, nblocks)
  in
  let write_somewhere ?side () =
    let view, block, nblocks = range () in
    let side = match side with Some s -> s | None -> any_side () in
    emit (Op (Write { side; view; block; nblocks; wid = fresh_wid () }))
  in
  let read_somewhere () =
    let view, block, nblocks = range () in
    emit (Op (Read { side = any_side (); view; block; nblocks }))
  in
  let race_somewhere () =
    let view, block, nblocks = range () in
    emit
      (Op
         (Write_racing
            { view; block; nblocks; wid_a = fresh_wid (); wid_b = fresh_wid () }))
  in
  (* seed content so partitions have something to diverge over *)
  for _ = 1 to 3 do
    write_somewhere ()
  done;
  for _ = 1 to cfg.steps do
    match Rng.int rng 100 with
    | n when n < 26 -> write_somewhere ()
    | n when n < 40 -> read_somewhere ()
    | n when n < 48 -> race_somewhere ()
    | n when n < 60 ->
      (* partition recipe: cut, traffic on one or both sides (the mirror
         timeout drives mediation), optional racing pair, heal, failback *)
      emit (Fault Cut_link);
      let writer = any_side () in
      for _ = 1 to 1 + Rng.int rng 2 do
        write_somewhere ~side:writer ()
      done;
      if Rng.int rng 3 = 0 then race_somewhere ();
      if Rng.bool rng then read_somewhere ();
      emit (Fault Heal_link);
      emit (Op Settle)
    | n when n < 68 ->
      (* straddling write: the cut lands mid-flight, inside the mirror
         round trip, so the write must fail over transparently *)
      emit (Timed { delay_us = 50.0 +. Rng.float rng 2_000.0; fault = Cut_link });
      write_somewhere ();
      write_somewhere ();
      emit (Fault Heal_link);
      emit (Op Settle)
    | n when n < 76 ->
      (* mediator loss during a partition: nobody can win, the pod must
         freeze (reject I/O) rather than risk split brain *)
      emit (Fault Lose_mediator);
      emit (Fault Cut_link);
      write_somewhere ();
      read_somewhere ();
      emit (Fault Restore_mediator);
      emit (Fault Heal_link);
      emit (Op Settle)
    | n when n < 86 ->
      (* array crash: traffic continues on the survivor via mediation,
         then the dead side returns and the pod fails back *)
      let victim = any_side () in
      emit (Fault (Crash victim));
      for _ = 1 to 1 + Rng.int rng 2 do
        write_somewhere ()
      done;
      if Rng.bool rng then read_somewhere ();
      emit (Op (Recover victim));
      emit (Op Settle)
    | n when n < 91 ->
      (* simultaneous crash: everything volatile dies; both recover and
         the pod reconciles from the pod holder's content *)
      emit (Fault Crash_both);
      emit (Op (Recover A));
      emit (Op (Recover B));
      emit (Op Settle)
    | n when n < 96 -> emit (Op Settle)
    | _ -> read_somewhere ()
  done;
  (* compensating tail: end every scenario in a reachable-audit state *)
  emit (Fault Heal_link);
  emit (Fault Restore_mediator);
  emit (Op (Recover A));
  emit (Op (Recover B));
  emit (Op Settle);
  { seed; vols; events = List.rev !rev_events }
