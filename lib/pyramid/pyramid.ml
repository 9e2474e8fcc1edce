module Ranges = Purity_encoding.Ranges
module Stbl = Purity_util.Keytbl.Str

type policy = Elide of (Fact.t -> int) | Tombstones

type elide_entry = { eseq : int64; lo : int; hi : int }

type t = {
  name : string;
  policy : policy;
  flush_count : int;
  memtable : Fact.t list Stbl.t; (* key -> facts, newest first *)
  mutable memtable_count : int;
  mutable patches : Patch.t list; (* shallowest (newest) first *)
  mutable elide_log : elide_entry list; (* newest first *)
  mutable elide_ranges : Ranges.t; (* union of elide_log ranges *)
  mutable elide_index : (int64 array * Ranges.t array) option;
      (* eseq-sorted entries with cumulative unions, for snapshot reads;
         rebuilt lazily after any elide mutation *)
  mutable max_seq : int64;
  (* fast-path accounting, read back through the telemetry registry *)
  mutable stat_probes : int; (* patch consults attempted *)
  mutable stat_fence_skips : int; (* rejected by key-range fence *)
  mutable stat_bloom_skips : int; (* rejected by bloom filter *)
}

let create ?(memtable_flush_count = 1024) ~policy ~name () =
  {
    name;
    policy;
    flush_count = memtable_flush_count;
    memtable = Stbl.create 64;
    memtable_count = 0;
    patches = [];
    elide_log = [];
    elide_ranges = Ranges.empty;
    elide_index = None;
    max_seq = 0L;
    stat_probes = 0;
    stat_fence_skips = 0;
    stat_bloom_skips = 0;
  }

let name t = t.name
let policy_is_elision t = match t.policy with Elide _ -> true | Tombstones -> false

let bump_seq t seq = if Int64.compare seq t.max_seq > 0 then t.max_seq <- seq

(* Merges drop what the elide table retracts: elide ids are never
   reused, so filtering against the full table is always safe. *)
let live_filter t =
  match t.policy with
  | Tombstones -> None
  | Elide rule -> Some (fun f -> not (Ranges.mem t.elide_ranges (rule f)))

let merge_step t =
  match t.patches with
  | a :: b :: rest ->
    t.patches <- Patch.merge_many ?keep:(live_filter t) [ a; b ] :: rest;
    true
  | _ -> false

(* Size-tiered maintenance: after a flush, merge the shallowest patches
   while the newer one has grown to at least half the older one's size.
   This keeps the patch count logarithmic in the number of flushes, like
   the background merge strategies of the LSM literature the paper cites
   (elided facts are dropped by the merges along the way). *)
let rec auto_compact t =
  match t.patches with
  | a :: b :: _ when 2 * Patch.count a >= Patch.count b -> if merge_step t then auto_compact t
  | _ -> ()

let memtable_patch t =
  Patch.of_facts (Stbl.fold (fun _ fs acc -> List.rev_append fs acc) t.memtable [])

let flush t =
  if t.memtable_count > 0 then begin
    t.patches <- memtable_patch t :: t.patches;
    Stbl.reset t.memtable;
    t.memtable_count <- 0;
    auto_compact t
  end

let insert_fact t f =
  let prev = Option.value ~default:[] (Stbl.find_opt t.memtable f.Fact.key) in
  (* Idempotence at the earliest point: drop exact (key, seq) repeats. *)
  if not (List.exists (fun g -> Int64.equal g.Fact.seq f.Fact.seq) prev) then begin
    Stbl.replace t.memtable f.Fact.key (f :: prev);
    t.memtable_count <- t.memtable_count + 1;
    bump_seq t f.Fact.seq;
    if t.memtable_count >= t.flush_count then flush t
  end

let insert t ~seq ~key ~value = insert_fact t (Fact.make ~key ~value ~seq)

let delete t ~seq ~key =
  match t.policy with
  | Tombstones -> insert_fact t (Fact.tombstone ~key ~seq)
  | Elide _ -> invalid_arg "Pyramid.delete: elision-policy table; use elide_range"

let elide_range t ~seq ~lo ~hi =
  match t.policy with
  | Tombstones -> invalid_arg "Pyramid.elide_range: tombstone-policy table; use delete"
  | Elide _ ->
    if lo > hi then invalid_arg "Pyramid.elide_range: lo > hi";
    t.elide_log <- { eseq = seq; lo; hi } :: t.elide_log;
    t.elide_ranges <- Ranges.add_range t.elide_ranges ~lo ~hi;
    t.elide_index <- None;
    bump_seq t seq

let elide_id t ~seq id = elide_range t ~seq ~lo:id ~hi:id

(* Elide ids are never reused, so filtering against the full table is
   always safe; snapshot reads restrict to entries committed by then.
   The snapshot path binary-searches an eseq-sorted index of cumulative
   range unions instead of scanning the whole log per fact. *)
let elide_index t =
  match t.elide_index with
  | Some ix -> ix
  | None ->
    let entries = Array.of_list t.elide_log in
    Array.sort (fun a b -> Int64.compare a.eseq b.eseq) entries;
    let n = Array.length entries in
    let seqs = Array.make n 0L in
    let cums = Array.make n Ranges.empty in
    let acc = ref Ranges.empty in
    Array.iteri
      (fun i e ->
        acc := Ranges.add_range !acc ~lo:e.lo ~hi:e.hi;
        seqs.(i) <- e.eseq;
        cums.(i) <- !acc)
      entries;
    let ix = (seqs, cums) in
    t.elide_index <- Some ix;
    ix

let elided_at t ~snapshot f =
  match t.policy with
  | Tombstones -> false
  | Elide rule ->
    let id = rule f in
    if Int64.compare snapshot t.max_seq >= 0 then Ranges.mem t.elide_ranges id
    else begin
      let seqs, cums = elide_index t in
      (* largest i with seqs.(i) <= snapshot *)
      let lo = ref 0 and hi = ref (Array.length seqs) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Int64.compare seqs.(mid) snapshot <= 0 then lo := mid + 1 else hi := mid
      done;
      !lo > 0 && Ranges.mem cums.(!lo - 1) id
    end

let no_snapshot = Int64.max_int

(* Latest fact for a key with seq <= snapshot, across memtable and every
   patch. Patches may overlap in sequence ranges after recovery, so all
   sources are consulted and the global maximum wins. Patches whose key
   fence or bloom filter excludes the key are skipped without a search,
   and the per-patch probe allocates nothing. *)
let[@purity.lint.hotpath] [@purity.lint.allow
                            "hotalloc: a lookup allocates a bounded \
                             handful of words — the memoised bloom \
                             hash (lazy cell), the fold closure, and \
                             the result option — per query, not per \
                             fact scanned; the patch probes themselves \
                             are allocation-free"] latest_fact t ~snapshot key =
  let best = ref None in
  let consider f =
    match !best with
    | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
    | _ -> best := Some f
  in
  (match Stbl.find_opt t.memtable key with
  | Some fs ->
    List.iter (fun f -> if Int64.compare f.Fact.seq snapshot <= 0 then consider f) fs
  | None -> ());
  let hashes = lazy (Purity_util.Bloom.hash_pair key) in
  List.iter
    (fun p ->
      t.stat_probes <- t.stat_probes + 1;
      (* seq fence first (two int64 compares): a patch whose newest fact
         is already dominated by the best so far — or whose oldest fact
         postdates the snapshot — cannot contribute *)
      let dominated =
        match !best with
        | Some b -> Int64.compare b.Fact.seq (Patch.max_seq p) >= 0
        | None -> false
      in
      if dominated || Int64.compare snapshot (Patch.min_seq p) < 0 then
        t.stat_fence_skips <- t.stat_fence_skips + 1
      else if not (Patch.fence_admits p key) then t.stat_fence_skips <- t.stat_fence_skips + 1
      else if not (Patch.bloom_admits_hashed p hashes) then
        t.stat_bloom_skips <- t.stat_bloom_skips + 1
      else
        match Patch.find_latest_at p key ~snapshot with
        | Some f -> consider f
        | None -> ())
    t.patches;
  !best

(* The pre-filter lookup, kept as the reference implementation: the
   equivalence properties in test_pyramid.ml and the before/after rows
   of bench/exp_metadata_hotpath.ml compare against it. *)
let latest_fact_naive t ~snapshot key =
  let best = ref None in
  let consider f =
    if Int64.compare f.Fact.seq snapshot <= 0 then
      match !best with
      | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
      | _ -> best := Some f
  in
  (match Stbl.find_opt t.memtable key with
  | Some fs -> List.iter consider fs
  | None -> ());
  List.iter (fun p -> List.iter consider (Patch.find p key)) t.patches;
  !best

(* Is any fact for [key] newer than [than]? Only the memtable and the
   patches whose newest fact postdates [than] can hold one, so older
   patches are skipped by their seq fence. Counts no probes. *)
let has_newer t key ~than =
  let newer f = Int64.compare f.Fact.seq than > 0 in
  (match Stbl.find_opt t.memtable key with Some fs -> List.exists newer fs | None -> false)
  || List.exists
       (fun p ->
         Int64.compare (Patch.max_seq p) than > 0
         && Patch.fence_admits p key
         && Patch.bloom_admits p key
         && match Patch.find_latest p key with Some f -> newer f | None -> false)
       t.patches

let resolve t ~snapshot ~ignore_retractions fact =
  match fact with
  | None -> None
  | Some f ->
    if ignore_retractions then f.Fact.value
    else if Fact.is_tombstone f then None
    else if elided_at t ~snapshot f then None
    else f.Fact.value

let find ?(snapshot = no_snapshot) t key =
  resolve t ~snapshot ~ignore_retractions:false (latest_fact t ~snapshot key)

let find_ignoring_retractions ?(snapshot = no_snapshot) t key =
  resolve t ~snapshot ~ignore_retractions:true (latest_fact t ~snapshot key)

let find_naive ?(snapshot = no_snapshot) t key =
  resolve t ~snapshot ~ignore_retractions:false (latest_fact_naive t ~snapshot key)

let resolve_fact ?(snapshot = no_snapshot) t fact =
  resolve t ~snapshot ~ignore_retractions:false fact

(* Batched lookup for [n] consecutive keys: one lower_bound then a
   sequential walk per patch, instead of n independent binary searches.
   [key_of i] names slot i's key (keys must be ascending in i); [index]
   inverts it, mapping a stored key back to its slot (return anything
   out of [0, n) for keys that belong to no slot). Returns the latest
   in-snapshot fact per slot; retractions are NOT applied — feed each
   slot through [resolve]. *)
let find_run ?(snapshot = no_snapshot) t ~n ~key_of ~index =
  let best = Array.make n None in
  let consider slot f =
    if slot >= 0 && slot < n && Int64.compare f.Fact.seq snapshot <= 0 then
      match best.(slot) with
      | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
      | _ -> best.(slot) <- Some f
  in
  for i = 0 to n - 1 do
    match Stbl.find_opt t.memtable (key_of i) with
    | Some fs -> List.iter (consider i) fs
    | None -> ()
  done;
  if n > 0 then begin
    let lo = key_of 0 and hi = key_of (n - 1) in
    List.iter
      (fun p ->
        t.stat_probes <- t.stat_probes + 1;
        if
          Int64.compare snapshot (Patch.min_seq p) < 0
          || not (Patch.fence_overlaps p ~lo ~hi)
        then t.stat_fence_skips <- t.stat_fence_skips + 1
        else Patch.iter_run p ~lo ~hi (fun f -> consider (index f.Fact.key) f))
      t.patches
  end;
  best

(* One k-way merge over memtable and patches: the first in-snapshot fact
   per key is its latest version; retracted ones read as absent. *)
let iter_live ?(snapshot = no_snapshot) t f =
  let keep =
    if Int64.equal snapshot no_snapshot then None
    else Some (fun fact -> Int64.compare fact.Fact.seq snapshot <= 0)
  in
  Patch.iter_merged ?keep ~latest:true ~drop_tombstones:true (memtable_patch t :: t.patches)
    (fun fact ->
      if not (elided_at t ~snapshot fact) then
        match fact.Fact.value with
        | Some value -> f ~key:fact.Fact.key ~value
        | None -> ())

let range ?(snapshot = no_snapshot) t ~lo ~hi =
  let acc = ref [] in
  iter_live ~snapshot t (fun ~key ~value ->
      if String.compare key lo >= 0 && String.compare key hi <= 0 then
        acc := (key, value) :: !acc);
  List.rev !acc

(* Does any key in [lo, hi] resolve to a live value? Unlike [range]
   (which merges the entire pyramid just to filter it), this walks only
   the facts inside the fence of each overlapping patch and keeps the
   per-key winner in a scratch table — maintenance paths (medium
   flattening, GC) call it in loops. *)
let exists_live_in_range ?(snapshot = no_snapshot) t ~lo ~hi =
  let best : Fact.t Stbl.t = Stbl.create 32 in
  let consider f =
    if
      Int64.compare f.Fact.seq snapshot <= 0
      && String.compare f.Fact.key lo >= 0
      && String.compare f.Fact.key hi <= 0
    then
      match Stbl.find_opt best f.Fact.key with
      | Some b when Int64.compare b.Fact.seq f.Fact.seq >= 0 -> ()
      | _ -> Stbl.replace best f.Fact.key f
  in
  Stbl.iter (fun _ fs -> List.iter consider fs) t.memtable;
  List.iter
    (fun p -> if Patch.fence_overlaps p ~lo ~hi then Patch.iter_run p ~lo ~hi consider)
    t.patches;
  try
    Stbl.iter
      (fun _ f ->
        if
          (not (Fact.is_tombstone f))
          && (not (elided_at t ~snapshot f))
          && Option.is_some f.Fact.value
        then raise Exit)
      best;
    false
  with Exit -> true

let flatten t =
  flush t;
  let bottom =
    Patch.merge_many ?keep:(live_filter t) ~latest:true ~drop_tombstones:true t.patches
  in
  t.patches <- (if Patch.is_empty bottom then [] else [ bottom ])

let patch_count t = List.length t.patches

let fact_count t =
  t.memtable_count + List.fold_left (fun acc p -> acc + Patch.count p) 0 t.patches

let live_key_count t =
  let n = ref 0 in
  iter_live t (fun ~key:_ ~value:_ -> incr n);
  !n

let memtable_size t = t.memtable_count
let elide_table t = t.elide_ranges
let elide_range_count t = Ranges.range_count t.elide_ranges
let max_seq t = t.max_seq
let patches t = t.patches

(* (probes attempted, skipped by fence, skipped by bloom) since creation. *)
let probe_stats t = (t.stat_probes, t.stat_fence_skips, t.stat_bloom_skips)

let replace_patches t ps =
  t.patches <- ps;
  List.iter
    (fun p -> match Patch.seq_range p with Some (_, hi) -> bump_seq t hi | None -> ())
    ps

let restore_elides t ranges =
  match t.policy with
  | Tombstones -> invalid_arg "Pyramid.restore_elides: tombstone-policy table"
  | Elide _ ->
    Ranges.fold
      (fun ~lo ~hi () -> t.elide_log <- { eseq = 0L; lo; hi } :: t.elide_log)
      ranges ();
    t.elide_ranges <- Ranges.union t.elide_ranges ranges;
    t.elide_index <- None
