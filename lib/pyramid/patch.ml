module Varint = Purity_util.Varint
module Crc32c = Purity_util.Crc32c
module Bloom = Purity_util.Bloom

(* A patch is an immutable sorted run of facts plus lookup fences: the
   key range comes free from the sorted array's ends, and patches big
   enough to matter carry a bloom filter over their distinct keys so the
   point-lookup path can skip whole patches without binary-searching
   them (paper §4.9: consulting metadata pages must stay cheap as the
   pyramid deepens). *)
type t = {
  facts : Fact.t array; (* sorted by (key asc, seq desc), no (key,seq) dups *)
  bloom : Bloom.t option; (* key filter; None below [bloom_threshold] *)
  seq_lo : int64; (* min seq over facts; max_int when empty *)
  seq_hi : int64; (* max seq over facts; min_int when empty *)
}

(* Below this many facts a binary search is already a handful of
   comparisons; the filter would cost more to build than it saves. *)
let bloom_threshold = 16

(* [facts] must already be sorted and deduped. *)
let make facts =
  let n = Array.length facts in
  let bloom = if n < bloom_threshold then None else Some (Bloom.create ~expected:n ()) in
  let seq_lo = ref Int64.max_int and seq_hi = ref Int64.min_int in
  Array.iteri
    (fun i f ->
      (match bloom with
      | Some b when i = 0 || not (String.equal f.Fact.key facts.(i - 1).Fact.key) ->
        Bloom.add b f.Fact.key
      | _ -> ());
      if Int64.compare f.Fact.seq !seq_lo < 0 then seq_lo := f.Fact.seq;
      if Int64.compare f.Fact.seq !seq_hi > 0 then seq_hi := f.Fact.seq)
    facts;
  { facts; bloom; seq_lo = !seq_lo; seq_hi = !seq_hi }

let empty = { facts = [||]; bloom = None; seq_lo = Int64.max_int; seq_hi = Int64.min_int }
let count t = Array.length t.facts
let is_empty t = Array.length t.facts = 0

(* The one merge kernel behind every pyramid merge, flatten and scan.
   [runs] are sorted, (key, seq)-unique fact arrays, shallowest first.
   Facts leave a k-run heap in (key asc, seq desc) order; of facts sharing
   a (key, seq) only the shallowest run's survives. Each survivor is then
   offered to [keep] (when given); under [latest] only the first kept fact
   per key is written, and under [drop_tombstones] a key whose first kept
   fact is a tombstone writes nothing. Survivors go straight into one
   array sized for the worst case, trimmed once at the end. The heap
   lives in [cur.(0 .. size-1)] as run indices, shallower first on a
   (key, seq) tie; [cur.(k + r)] is run [r]'s cursor. *)
let run_before runs cur k r1 r2 =
  let c = Fact.compare_key_seq runs.(r1).(cur.(k + r1)) runs.(r2).(cur.(k + r2)) in
  c < 0 || (c = 0 && r1 < r2)

let rec sift_down runs cur k size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let m = if l + 1 < size && run_before runs cur k cur.(l + 1) cur.(l) then l + 1 else l in
    if run_before runs cur k cur.(m) cur.(i) then begin
      let r = cur.(m) in
      cur.(m) <- cur.(i);
      cur.(i) <- r;
      sift_down runs cur k size m
    end
  end

let no_fact = Fact.tombstone ~key:"" ~seq:0L

(* Writes the survivors into [out]; returns how many. *)
let merge_loop ~keep ~latest ~drop_tombstones runs cur out =
  let k = Array.length runs and size = ref 0 and n = ref 0 in
  for r = 0 to k - 1 do
    if Array.length runs.(r) > 0 then begin
      cur.(!size) <- r;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down runs cur k !size i
  done;
  (* the last fact popped, and the last one kept *)
  let prev = ref no_fact and last = ref no_fact in
  while !size > 0 do
    let r = cur.(0) in
    let f = runs.(r).(cur.(k + r)) in
    if cur.(k + r) + 1 < Array.length runs.(r) then cur.(k + r) <- cur.(k + r) + 1
    else begin
      decr size;
      cur.(0) <- cur.(!size)
    end;
    sift_down runs cur k !size 0;
    let dup = !prev != no_fact && Fact.compare_key_seq !prev f = 0 in
    prev := f;
    if
      (not dup)
      && (match keep with None -> true | Some p -> p f)
      && not (latest && !last != no_fact && String.equal !last.Fact.key f.Fact.key)
    then begin
      last := f;
      if not (latest && drop_tombstones && Fact.is_tombstone f) then begin
        out.(!n) <- f;
        incr n
      end
    end
  done;
  !n

let[@purity.lint.hotpath] merge_runs ~keep ~latest ~drop_tombstones runs =
  let total = ref 0 and first = ref (-1) in
  for r = Array.length runs - 1 downto 0 do
    if Array.length runs.(r) > 0 then first := r;
    total := !total + Array.length runs.(r)
  done;
  if !first < 0 then [||]
  else
    (let out = Array.make !total runs.(!first).(0) and cur = Array.make (2 * Array.length runs) 0 in
     let n = merge_loop ~keep ~latest ~drop_tombstones runs cur out in
     if n = !total then out else Array.sub out 0 n)
    [@purity.lint.allow
      "hotalloc: the output array (trimmed once to the survivors) and \
       the k-run cursor heap, allocated once per merge; the per-fact \
       loop allocates nothing"]

let runs_of ts = Array.of_list (List.map (fun t -> t.facts) ts)

let merge_many ?keep ?(latest = false) ?(drop_tombstones = false) ts =
  let merged = merge_runs ~keep ~latest ~drop_tombstones (runs_of ts) in
  match ts with
  | [ t ] when Array.length merged = Array.length t.facts -> t (* nothing dropped *)
  | _ -> make merged

let iter_merged ?keep ?(latest = false) ?(drop_tombstones = false) ts f =
  Array.iter f (merge_runs ~keep ~latest ~drop_tombstones (runs_of ts))

let merge a b = merge_many [ a; b ]
let compact_latest t ~drop_tombstones = merge_many ~latest:true ~drop_tombstones [ t ]

let of_facts facts =
  let a = Array.of_list facts in
  Array.sort Fact.compare_key_seq a;
  make (merge_runs ~keep:None ~latest:false ~drop_tombstones:false [| a |])

let seq_range t = if is_empty t then None else Some (t.seq_lo, t.seq_hi)
let max_seq t = t.seq_hi
let min_seq t = t.seq_lo

let key_range t =
  if is_empty t then None
  else Some ((t.facts.(0)).Fact.key, (t.facts.(Array.length t.facts - 1)).Fact.key)

(* Index of the first fact with key >= [key]. *)
let lower_bound t key =
  let a = t.facts in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (a.(mid)).Fact.key key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Fence checks: cheap rejections before any binary search. *)
let fence_admits t key =
  let a = t.facts in
  let n = Array.length a in
  n > 0
  && String.compare (a.(0)).Fact.key key <= 0
  && String.compare key (a.(n - 1)).Fact.key <= 0

let fence_overlaps t ~lo ~hi =
  let a = t.facts in
  let n = Array.length a in
  n > 0
  && String.compare (a.(0)).Fact.key hi <= 0
  && String.compare lo (a.(n - 1)).Fact.key <= 0

let bloom_admits t key = match t.bloom with None -> true | Some b -> Bloom.mem b key

(* One key is tested against every patch on the lookup path: hash once,
   probe each filter with the digests. *)
let bloom_admits_hashed t hashes =
  match t.bloom with None -> true | Some b -> Bloom.mem_hashed b (Lazy.force hashes)

let has_bloom t = Option.is_some t.bloom

let find_latest t key =
  let i = lower_bound t key in
  if i < Array.length t.facts && String.equal (t.facts.(i)).Fact.key key then Some t.facts.(i)
  else None

(* Latest fact for [key] with seq <= [snapshot]. A key's facts sit
   newest-first, so the first admissible one wins; nothing is allocated
   on the miss path. *)
let[@purity.lint.allow
     "hotalloc: [Some fact] is the lookup's result; the miss path \
      allocates nothing"] find_latest_at t key ~snapshot =
  let a = t.facts in
  let n = Array.length a in
  let i = ref (lower_bound t key) in
  let best = ref None in
  (try
     while !i < n && String.equal (a.(!i)).Fact.key key do
       if Int64.compare (a.(!i)).Fact.seq snapshot <= 0 then begin
         best := Some a.(!i);
         raise Exit
       end;
       incr i
     done
   with Exit -> ());
  !best

let to_list t = Array.to_list t.facts
let get t i = t.facts.(i)

(* One lower_bound, then a sequential walk: the batched-resolution
   primitive. [f] sees every fact with lo <= key <= hi in order. *)
let iter_run t ~lo ~hi f =
  let a = t.facts in
  let n = Array.length a in
  let i = ref (lower_bound t lo) in
  while !i < n && String.compare (a.(!i)).Fact.key hi <= 0 do
    f a.(!i);
    incr i
  done

let range t ~lo ~hi =
  let acc = ref [] in
  iter_run t ~lo ~hi (fun f -> acc := f :: !acc);
  List.rev !acc

let find t key = range t ~lo:key ~hi:key

let serialize t =
  let body = Buffer.create (64 * Array.length t.facts) in
  Varint.write body (Array.length t.facts);
  Array.iter (fun f -> Fact.encode body f) t.facts;
  let payload = Buffer.contents body in
  let out = Buffer.create (String.length payload + 8) in
  Varint.write out (String.length payload);
  let crc = Crc32c.digest_string payload in
  for shift = 0 to 3 do
    Buffer.add_char out
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc (8 * shift)) 0xFFl)))
  done;
  Buffer.add_string out payload;
  Buffer.contents out

let deserialize s =
  let buf = Bytes.unsafe_of_string s in
  let payload_len, p = Varint.read buf ~pos:0 in
  if p + 4 + payload_len > Bytes.length buf then invalid_arg "Patch.deserialize: truncated";
  let crc_stored =
    let b i = Int32.of_int (Bytes.get_uint8 buf (p + i)) in
    Int32.logor (b 0)
      (Int32.logor
         (Int32.shift_left (b 1) 8)
         (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))
  in
  let payload_pos = p + 4 in
  if not (Int32.equal (Crc32c.update 0l buf ~pos:payload_pos ~len:payload_len) crc_stored) then
    invalid_arg "Patch.deserialize: CRC mismatch";
  let n, pos = Varint.read buf ~pos:payload_pos in
  let facts = ref [] in
  let p = ref pos in
  for _ = 1 to n do
    let f, next = Fact.decode buf ~pos:!p in
    facts := f :: !facts;
    p := next
  done;
  of_facts (List.rev !facts)
