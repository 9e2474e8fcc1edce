(* In-memory spans for the traced run.

   One span per benchmark call into the program ([Fa.write], [Fa.read],
   a clock drain, [Fa.gc], [Fa.checkpoint], [Fa.failover]) plus a root
   span over the measured phase. Spans nest on a stack: a front call
   issued from a completion callback (a back-pressure retry) runs inside
   the drain that dispatched it and becomes that drain's child.

   Each span records host CPU time, simulated time, its [Gc.quick_stat]
   delta and the [Kernel_stats] nanoseconds spent inside it. Registry
   diffs are taken over the measured phase as a whole and over failover
   only: a registry snapshot samples [array/live_logical_bytes], which
   walks the whole block index, so one per front call or maintenance
   pass would cost more than the call being measured.

   Self time is a span's duration minus what its children cover, with the
   kernel nanoseconds inside it counted as children too; summed over all
   spans it gives back the root's duration. *)

module Clock = Purity_sim.Clock
module Ks = Purity_util.Kernel_stats
module Registry = Purity_telemetry.Registry

let kernels = Array.of_list Ks.all
let nkernels = Array.length kernels

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for the root *)
  t0 : float; (* host CPU seconds *)
  mutable t1 : float;
  sim0 : float; (* simulated microseconds *)
  mutable sim1 : float;
  gc0 : Gc.stat;
  mutable alloc_words : float; (* minor + major - promoted, inclusive *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  k0 : int array; (* kernel ns at start *)
  kns : int array; (* kernel ns inside the span, inclusive *)
  mutable child_s : float; (* host seconds covered by direct children *)
  mutable child_words : float; (* direct children's inclusive allocation *)
  child_kns : int array; (* direct children's inclusive kernel ns *)
  mutable base : Registry.snapshot option;
  mutable counters : (string * int) list; (* non-zero registry deltas *)
}

type t = {
  clock : Clock.t;
  mutable spans : span array;
  mutable count : int;
  mutable stack : span list;
}

let create clock = { clock; spans = [||]; count = 0; stack = [] }

let kernel_ns () = Array.map (fun (k : Ks.kernel) -> k.ns) kernels

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let push t sp =
  if t.count = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.count)) sp in
    Array.blit t.spans 0 grown 0 t.count;
    t.spans <- grown
  end;
  t.spans.(t.count) <- sp;
  t.count <- t.count + 1

(* [registry]: take a registry diff over the span (coarse spans only). The
   snapshot is read outside the timed interval, so its cost lands in the
   parent's self time — part of the reported tracing overhead. *)
let start ?registry t name =
  let base = Option.map Registry.snapshot registry in
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let sp =
    {
      id = t.count;
      name;
      parent;
      gc0 = Gc.quick_stat ();
      k0 = kernel_ns ();
      sim0 = Clock.now t.clock;
      t0 = Hclock.cpu_s ();
      t1 = 0.0;
      sim1 = 0.0;
      alloc_words = 0.0;
      minor_gcs = 0;
      major_gcs = 0;
      kns = Array.make nkernels 0;
      child_s = 0.0;
      child_words = 0.0;
      child_kns = Array.make nkernels 0;
      base;
      counters = [];
    }
  in
  push t sp;
  t.stack <- sp :: t.stack;
  sp

let finish ?registry t sp =
  sp.t1 <- Hclock.cpu_s ();
  sp.sim1 <- Clock.now t.clock;
  let k1 = kernel_ns () in
  let g1 = Gc.quick_stat () in
  for i = 0 to nkernels - 1 do
    sp.kns.(i) <- k1.(i) - sp.k0.(i)
  done;
  sp.alloc_words <- allocated g1 -. allocated sp.gc0;
  sp.minor_gcs <- g1.minor_collections - sp.gc0.minor_collections;
  sp.major_gcs <- g1.major_collections - sp.gc0.major_collections;
  (match t.stack with
  | top :: rest when top == sp -> t.stack <- rest
  | _ -> invalid_arg "Trace.finish: span is not the innermost open span");
  (match t.stack with
  | p :: _ ->
    p.child_s <- p.child_s +. (sp.t1 -. sp.t0);
    p.child_words <- p.child_words +. sp.alloc_words;
    for i = 0 to nkernels - 1 do
      p.child_kns.(i) <- p.child_kns.(i) + sp.kns.(i)
    done
  | [] -> ());
  match (sp.base, registry) with
  | Some base, Some reg ->
    let current = Registry.snapshot reg in
    sp.base <- None;
    sp.counters <-
      List.filter_map
        (fun (key, v) ->
          match v with
          | Registry.Int n when n <> 0 -> Some (key, n)
          | Registry.Hist h when h.Registry.h_count <> 0 -> Some (key, h.Registry.h_count)
          | _ -> None)
        (Registry.diff ~base ~current)
  | _ -> sp.base <- None

(* Run [f] inside a span when tracing, bare otherwise. *)
let wrap tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let sp = start t name in
    let r = f () in
    finish t sp;
    r

let duration sp = sp.t1 -. sp.t0

(* Kernel ns spent directly under [sp] (not under one of its children). *)
let kernel_self_ns sp i = sp.kns.(i) - sp.child_kns.(i)

let self_s sp =
  let k = ref 0 in
  for i = 0 to nkernels - 1 do
    k := !k + kernel_self_ns sp i
  done;
  duration sp -. sp.child_s -. (float_of_int !k /. 1e9)

let iter t f =
  for i = 0 to t.count - 1 do
    f t.spans.(i)
  done

type layer = {
  layer : string;
  self : float; (* host seconds *)
  self_bytes : float; (* bytes allocated outside child spans *)
  calls : int; (* spans of this name (0 for kernel layers) *)
}

(* Per-layer self time: one layer per span name, then one [kernels.<k>]
   layer per kernel. The self times sum to the duration of the roots. *)
let layers t =
  let tbl = Hashtbl.create 16 in
  let add name ~self ~bytes ~calls =
    let l =
      Option.value ~default:{ layer = name; self = 0.0; self_bytes = 0.0; calls = 0 }
        (Hashtbl.find_opt tbl name)
    in
    Hashtbl.replace tbl name
      { l with self = l.self +. self; self_bytes = l.self_bytes +. bytes; calls = l.calls + calls }
  in
  iter t (fun sp ->
      add sp.name ~self:(self_s sp) ~bytes:((sp.alloc_words -. sp.child_words) *. 8.0) ~calls:1;
      Array.iteri
        (fun i (k : Ks.kernel) ->
          add ("kernels." ^ k.name)
            ~self:(float_of_int (kernel_self_ns sp i) /. 1e9)
            ~bytes:0.0 ~calls:0)
        kernels);
  List.sort (fun a b -> compare a.layer b.layer) (Hashtbl.fold (fun _ l acc -> l :: acc) tbl [])

let write_jsonl t path =
  let oc = open_out path in
  let fields kvs = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) kvs) in
  iter t (fun sp ->
      let kernel_ns =
        List.filter (fun (_, ns) -> ns <> 0)
          (Array.to_list (Array.mapi (fun i (k : Ks.kernel) -> (k.name, sp.kns.(i))) kernels))
      in
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"host_t0_us\":%.3f,\"host_t1_us\":%.3f,\
         \"self_us\":%.3f,\"sim_t0_us\":%.3f,\"sim_t1_us\":%.3f,\"alloc_bytes\":%.0f,\
         \"minor_gcs\":%d,\"major_gcs\":%d,\"kernel_ns\":{%s},\"registry\":{%s}}\n"
        sp.id sp.name sp.parent (sp.t0 *. 1e6) (sp.t1 *. 1e6)
        (self_s sp *. 1e6)
        sp.sim0 sp.sim1 (sp.alloc_words *. 8.0) sp.minor_gcs sp.major_gcs (fields kernel_ns)
        (fields sp.counters));
  close_out oc
