(* A deterministic domain pool for the data plane.

   Purity's controllers saturate multi-core Xeons (paper §2); the
   simulator's data plane — fingerprint, LZ, frame+CRC, RS parity — is
   embarrassingly parallel per block/row, but the whole engine must stay
   byte-for-byte replayable per seed: purity.check digest-compares double
   executions, and torture failures shrink by re-running seeds. So the
   pool trades scheduling freedom for determinism:

   - fixed size: [lanes] parallel lanes decided at creation, never grown;
   - static chunking: a batch of [tasks] work items is split into
     contiguous per-lane chunks by {!chunk} — pure arithmetic over
     (lanes, tasks, lane), independent of timing;
   - no work stealing: a lane only ever runs its own chunk;
   - join in submission order: {!run} returns only after every lane
     finished, and {!map} results land at their task index, so callers
     observe completion order, not scheduling order;
   - seeded per-lane state: {!lane_seed} derives a per-lane RNG seed from
     the pool seed, so any lane-local randomness replays.

   Lane 0 is the submitting (main) domain itself — it executes its own
   chunk while the [lanes - 1] worker domains run theirs, so a pool of n
   lanes uses exactly n cores and a 1-lane pool runs inline with zero
   synchronisation. Exceptions propagate deterministically: after the
   join, the lowest-lane exception (main first) is re-raised.

   Kernel-stats containment: worker domains must not race on the shared
   [Purity_util.Kernel_stats] cells, so kernels called off-main
   accumulate into domain-local shadow cells; each worker drains its
   shadow into a per-lane slot at the end of every batch, and the
   submitter folds the slots into the main cells after the join — totals
   are sums, so they are independent of execution order. *)

module Kernel_stats = Purity_util.Kernel_stats

type batch = {
  b_id : int;
  b_tasks : int;
  b_run : int -> int -> int -> unit; (* lane, lo, len *)
}

type t = {
  lanes : int;
  seed : int64;
  m : Mutex.t;
  wake : Condition.t; (* workers: a new batch is published *)
  idle : Condition.t; (* submitter: the last worker finished *)
  mutable batch : batch option;
  mutable next_batch : int;
  mutable pending : int;
  mutable live : bool;
  errors : exn option array; (* per lane; read by the submitter after join *)
  stats : int array array; (* per-lane drained kernel-stat shadow cells *)
  mutable domains : unit Domain.t array;
}

let lanes t = t.lanes

(* Static chunking: contiguous [lo, lo+len) per lane, remainder spread
   over the lowest lanes. Pure in (lanes, tasks, lane). *)
let chunk ~lanes ~tasks lane =
  let q = tasks / lanes and r = tasks mod lanes in
  ((lane * q) + min lane r, q + if lane < r then 1 else 0)

let rec worker_loop t lane last =
  Mutex.lock t.m;
  let rec next () =
    if not t.live then None
    else
      match t.batch with
      | Some b when b.b_id > last -> Some b
      | _ ->
        Condition.wait t.wake t.m;
        next ()
  in
  let b = next () in
  Mutex.unlock t.m;
  match b with
  | None -> () (* shutdown *)
  | Some b ->
    let lo, len = chunk ~lanes:t.lanes ~tasks:b.b_tasks lane in
    (try if len > 0 then b.b_run lane lo len with e -> t.errors.(lane) <- Some e);
    Kernel_stats.drain_shadow ~into:t.stats.(lane);
    Mutex.lock t.m;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.signal t.idle;
    Mutex.unlock t.m;
    worker_loop t lane b.b_id

let create ?(seed = 0x9A11E7L) ~domains () =
  if domains < 1 || domains > 64 then invalid_arg "Pool.create: 1 <= domains <= 64";
  let t =
    {
      lanes = domains;
      seed;
      m = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      batch = None;
      next_batch = 1;
      pending = 0;
      live = true;
      errors = Array.make domains None;
      stats = Array.init domains (fun _ -> Array.make Kernel_stats.shadow_cells 0);
      domains = [||];
    }
  in
  t.domains <-
    Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let shutdown t =
  if t.live then begin
    Mutex.lock t.m;
    t.live <- false;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative tasks";
  if t.lanes = 1 || tasks <= 1 then begin
    if tasks > 0 then f ~lane:0 ~lo:0 ~len:tasks
  end
  else begin
    if not t.live then invalid_arg "Pool.run: pool is shut down";
    Mutex.lock t.m;
    let id = t.next_batch in
    t.next_batch <- id + 1;
    t.batch <- Some { b_id = id; b_tasks = tasks; b_run = (fun lane lo len -> f ~lane ~lo ~len) };
    t.pending <- t.lanes - 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    (* lane 0 = this domain *)
    let lo, len = chunk ~lanes:t.lanes ~tasks 0 in
    (try if len > 0 then f ~lane:0 ~lo ~len with e -> t.errors.(0) <- Some e);
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.idle t.m
    done;
    t.batch <- None;
    Mutex.unlock t.m;
    (* fold worker kernel counters into the main cells; totals are sums,
       so the aggregate is independent of lane scheduling *)
    for lane = 1 to t.lanes - 1 do
      Kernel_stats.absorb t.stats.(lane)
    done;
    (* deterministic error propagation: lowest lane wins *)
    let exn = ref None in
    for lane = t.lanes - 1 downto 0 do
      (match t.errors.(lane) with Some e -> exn := Some e | None -> ());
      t.errors.(lane) <- None
    done;
    match !exn with Some e -> raise e | None -> ()
  end

let map t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.map: negative tasks";
  if tasks = 0 then [||]
  else begin
    let out = Array.make tasks None in
    (* distinct indices per lane: no two domains touch the same slot *)
    run t ~tasks (fun ~lane ~lo ~len ->
        for i = lo to lo + len - 1 do
          out.(i) <- Some (f ~lane i)
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

(* SplitMix-style per-lane seed derivation: stable in (pool seed, lane). *)
let lane_seed t lane =
  if lane < 0 || lane >= t.lanes then invalid_arg "Pool.lane_seed";
  Int64.logxor t.seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (lane + 1)))

(* ---------- the process-global pool ---------- *)

let domains_from_env () =
  match Sys.getenv_opt "PURITY_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> min n 64
    | _ -> 1)

let global_pool = ref None

let global () =
  match !global_pool with
  | Some p when p.live -> p
  | _ ->
    let p = create ~domains:(domains_from_env ()) () in
    global_pool := Some p;
    p

let set_global_domains domains =
  (match !global_pool with Some p -> shutdown p | None -> ());
  global_pool := Some (create ~domains ())
