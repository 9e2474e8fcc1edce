open State

type config = State.config = {
  drives : int;
  drive_config : Purity_ssd.Drive.config;
  k : int;
  m : int;
  write_unit : int;
  nvram_capacity : int;
  memtable_flush : int;
  read_around_write : bool;
  p95_backup : bool;
  inline_dedup : bool;
  compression : bool;
  dedup_config : Purity_dedup.Dedup.config;
  read_cache_entries : int;
  map_cache_entries : int;
  secondary_warming : bool;
  seed : int64;
}

let default_config = State.default_config
let block_size = State.block_size

type t = {
  config : config;
  clk : Clock.t;
  mutable st : State.t;
  mutable app_reads : int;
  mutable crash_time : float option;
  mutable total_downtime : float;
  mutable fenced : bool;
  created_at : float;
}

(* Array-level values, each computed in one place: the registry's
   derived metrics and [stats] both read them. *)
let live_logical_bytes st = Pyramid.live_key_count st.blocks * block_size
let physical_bytes_used st = Allocator.used_au_count st.alloc * st.cfg.drive_config.Drive.au_size

let provisioned_bytes st =
  State.Stbl.fold (fun _ (v : State.volume) acc -> acc + (v.State.blocks * block_size)) st.volumes 0

let data_reduction ~live_logical ~physical_used =
  if physical_used = 0 then 1.0 else float_of_int live_logical /. float_of_int physical_used

let availability t =
  let elapsed = Clock.now t.clk -. t.created_at in
  let down =
    t.total_downtime +. (match t.crash_time with Some at -> Clock.now t.clk -. at | None -> 0.0)
  in
  if elapsed <= 0.0 then 1.0 else (elapsed -. down) /. elapsed

(* Array-level derived metrics. Registered against the *current*
   controller's registry — re-run after every failover, since the spare
   boots with a fresh namespace (path counters reset, exactly as before
   telemetry existed) while these array-lifetime levels persist. *)
let register_array_telemetry t =
  let reg = t.st.tel in
  Registry.derive_int reg "array/app_reads" (fun () -> t.app_reads);
  Registry.derive_int reg "array/boot_region_writes" (fun () ->
      Boot_region.writes t.st.boot);
  Registry.derive_int reg "array/physical_bytes_used" (fun () -> physical_bytes_used t.st);
  Registry.derive_int reg "array/physical_capacity" (fun () ->
      Shelf.physical_bytes t.st.shelf);
  Registry.derive_int reg "array/live_logical_bytes" (fun () -> live_logical_bytes t.st);
  Registry.derive_int reg "array/provisioned_bytes" (fun () -> provisioned_bytes t.st);
  Registry.derive_float reg "array/data_reduction" (fun () ->
      data_reduction ~live_logical:(live_logical_bytes t.st)
        ~physical_used:(physical_bytes_used t.st));
  Registry.derive_float reg "array/availability" (fun () -> availability t)

let create ?(config = default_config) ~clock () =
  let t =
    { config; clk = clock; st = State.create ~config ~clock (); app_reads = 0;
      crash_time = None; total_downtime = 0.0; fenced = false;
      created_at = Clock.now clock }
  in
  register_array_telemetry t;
  t

let clock t = t.clk
let shelf t = t.st.shelf
let state t = t.st
let is_online t = t.st.online
let telemetry t = t.st.tel
let tracer t = t.st.tracer

type vol_error = [ `Exists | `No_such_volume | `Busy | `Is_snapshot | `Is_volume ]
type write_error = [ Write_path.error | `Fenced ]
type read_error = [ Read_path.error | `Fenced ]

(* Cluster-level fencing (ActiveCluster split-brain resolution): a fenced
   array refuses host I/O at the front door until the cluster layer
   unfences it. The flag lives outside [st] on purpose — it is imposed on
   the appliance, not on a controller, so a failover boots the spare
   still fenced. Maintenance (GC, scrub, rebuild, checkpoint) keeps
   running: fencing stops the host, not the array. *)
let fence t = t.fenced <- true
let unfence t = t.fenced <- false
let is_fenced t = t.fenced

(* ---------- volumes ----------
   Each namespace op stashes its changes in NVRAM. An op acknowledged
   with a stash NVRAM had no room for would be lost at the next crash,
   so when NVRAM cannot take them all the op is refused with [`Busy]
   before it changes anything. *)

let extents st m = List.length (Medium.extents st.medium_table m)

let create_volume t name ~blocks =
  let st = t.st in
  if State.Stbl.mem st.volumes name then Error `Exists
  else if blocks <= 0 then invalid_arg "create_volume: blocks must be positive"
  else if not (stashes_fit st ~mediums:[ 1 ] [ name ]) then Error `Busy
  else begin
    let medium = Medium.create_base st.medium_table ~blocks in
    let v = { medium; blocks; kind = Volume; observer = fresh_observer () } in
    State.Stbl.replace st.volumes name v;
    persist_medium st medium;
    persist_volume st name v;
    maybe_persist_boot st;
    Ok ()
  end

(* The mediums deleting view [name] drops, in drop order: its medium,
   then, depth first, every ancestor no other view uses and no surviving
   medium references. *)
let doomed_mediums st ~name medium =
  let in_use m =
    State.Stbl.fold
      (fun n v acc -> acc || (v.medium = m && not (String.equal n name)))
      st.volumes false
  in
  let rec doom acc m =
    if
      Medium.exists st.medium_table m
      && (not (List.mem m acc))
      && (not (in_use m))
      && List.for_all (fun r -> List.mem r acc) (Medium.referenced_by st.medium_table m)
    then
      Medium.extents st.medium_table m
      |> List.filter_map (fun (e : Medium.extent) ->
             match e.Medium.target with
             | Medium.Underlying { medium = u; _ } -> Some u
             | Medium.Base -> None)
      |> List.sort_uniq Int.compare
      |> List.fold_left doom (m :: acc)
    else acc
  in
  List.rev (doom [] medium)

(* Delete a volume or snapshot. Each dropped medium is one elide insert
   per table — the paper's point. *)
let delete_view st name (v : State.volume) =
  let doomed = doomed_mediums st ~name v.medium in
  if not (stashes_fit st ~elides:(2 * List.length doomed) ~mediums:[] [ name ]) then Error `Busy
  else begin
    State.Stbl.remove st.volumes name;
    put_delete st st.volumes_pyr ~key:name;
    List.iter
      (fun m ->
        Medium.drop st.medium_table m;
        put_elide st st.mediums_pyr ~lo:m ~hi:m;
        put_elide st st.blocks ~lo:m ~hi:m)
      doomed;
    Ok ()
  end

let delete_volume t name =
  match State.Stbl.find_opt t.st.volumes name with
  | None -> Error `No_such_volume
  | Some { kind = Snapshot; _ } -> Error `Is_snapshot
  | Some v -> delete_view t.st name v

let resize_volume t name ~blocks =
  let st = t.st in
  match State.Stbl.find_opt st.volumes name with
  | None -> Error `No_such_volume
  | Some { kind = Snapshot; _ } -> Error `Is_snapshot
  | Some v ->
    if blocks < v.blocks then Error `Shrink
    else if blocks = v.blocks then Ok ()
    else if not (stashes_fit st ~mediums:[ extents st v.medium + 1 ] [ name ]) then Error `Busy
    else begin
      Medium.extend st.medium_table v.medium ~blocks:(blocks - v.blocks);
      v.blocks <- blocks;
      persist_medium st v.medium;
      persist_volume st name v;
      Ok ()
    end

let snapshot t ~volume ~snap =
  let st = t.st in
  match State.Stbl.find_opt st.volumes volume with
  | None -> Error `No_such_volume
  | Some { kind = Snapshot; _ } -> Error `Is_snapshot
  | Some v ->
    if State.Stbl.mem st.volumes snap then Error `Exists
    else if not (stashes_fit st ~mediums:[ extents st v.medium; 1; 1 ] [ volume; snap ]) then
      Error `Busy
    else begin
      let frozen = v.medium in
      let snap_medium, successor = Medium.take_snapshot st.medium_table frozen in
      v.medium <- successor;
      let s = { medium = snap_medium; blocks = v.blocks; kind = Snapshot; observer = fresh_observer () } in
      State.Stbl.replace st.volumes snap s;
      persist_medium st frozen;
      persist_medium st snap_medium;
      persist_medium st successor;
      persist_volume st volume v;
      persist_volume st snap s;
      Ok ()
    end

let clone t ~snapshot:snap_name ~volume =
  let st = t.st in
  match State.Stbl.find_opt st.volumes snap_name with
  | None -> Error `No_such_volume
  | Some { kind = Volume; _ } -> Error `Is_volume
  | Some s ->
    if State.Stbl.mem st.volumes volume then Error `Exists
    else if not (stashes_fit st ~mediums:[ 1 ] [ volume ]) then Error `Busy
    else begin
      (* clone the medium the snapshot references (its frozen parent): the
         snapshot handle itself is an empty pass-through layer *)
      let parent =
        match Medium.extents st.medium_table s.medium with
        | [ { Medium.target = Medium.Underlying { medium; _ }; _ } ] -> medium
        | _ -> s.medium
      in
      let medium = Medium.clone st.medium_table parent () in
      let v = { medium; blocks = s.blocks; kind = Volume; observer = fresh_observer () } in
      State.Stbl.replace st.volumes volume v;
      persist_medium st medium;
      persist_volume st volume v;
      Ok ()
    end

let delete_snapshot t name =
  let st = t.st in
  match State.Stbl.find_opt st.volumes name with
  | None -> Error `No_such_volume
  | Some { kind = Volume; _ } -> Error `Is_volume
  | Some v -> delete_view st name v

let list_volumes t =
  State.Stbl.fold
    (fun name v acc ->
      (name, (match v.kind with Volume -> `Volume | Snapshot -> `Snapshot), v.blocks) :: acc)
    t.st.volumes []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let volume_exists t name = State.Stbl.mem t.st.volumes name

let inferred_io_blocks t name =
  match State.Stbl.find_opt t.st.volumes name with
  | Some v -> Some (State.inferred_io_blocks v.State.observer)
  | None -> None

(* ---------- data path ---------- *)

let write t ~volume ~block data k =
  if t.fenced then Clock.schedule t.clk ~delay:0.0 (fun () -> k (Error `Fenced))
  else
    Write_path.write t.st ~volume ~block data (fun r ->
        maybe_persist_boot t.st;
        k (r :> (unit, write_error) result))

let read t ~volume ~block ~nblocks k =
  if t.fenced then Clock.schedule t.clk ~delay:0.0 (fun () -> k (Error `Fenced))
  else begin
    t.app_reads <- t.app_reads + 1;
    Read_path.read t.st ~volume ~block ~nblocks (fun r ->
        k (r :> (string, read_error) result))
  end

let flush t k =
  (try seal_current t.st with Out_of_space -> ());
  when_flushed t.st k

(* ---------- maintenance ---------- *)

let checkpoint t k = Checkpoint.run t.st k
let gc ?min_dead_ratio ?max_victims t k = Gc.run ?min_dead_ratio ?max_victims t.st k
let scrub t k = Scrub.run t.st k

(* ---------- faults ---------- *)

let pull_drive t i = Shelf.pull_drive t.st.shelf i
let reinsert_drive t i = Shelf.reinsert_drive t.st.shelf i
let replace_drive t i = Shelf.replace_drive t.st.shelf i

let inject_page_corruption t ~drive ~au ~page =
  Drive.inject_page_corruption (Shelf.drive t.st.shelf drive) ~au ~page

let lose_nvram t = Nvram.lose (Shelf.nvram t.st.shelf)
let set_read_fault t f = Io.set_fault t.st.io f

let rebuild_drive t drive k = Gc.rebuild_drive t.st drive k

let crash t =
  t.st.online <- false;
  State.halt_device_activity t.st;
  t.crash_time <- Some (Clock.now t.clk)

let failover ?mode t k =
  if t.st.online then crash t;
  let st' =
    State.create_over ~config:t.config ~clock:t.clk ~shelf:t.st.shelf ~boot:t.st.boot ()
  in
  let old_st = t.st in
  Recovery.recover ?mode st' (fun report ->
      State.warm_cache ~from:old_st ~into:st';
      t.st <- st';
      (* the spare controller's registry is fresh: re-derive the
         array-lifetime metrics over the new state *)
      register_array_telemetry t;
      (match t.crash_time with
      | Some at ->
        t.total_downtime <- t.total_downtime +. (Clock.now t.clk -. at);
        t.crash_time <- None
      | None -> ());
      k report)

(* ---------- statistics ---------- *)

type stats = {
  app_writes : int;
  app_reads : int;
  logical_bytes_written : int;
  stored_bytes_written : int;
  live_logical_bytes : int;
  physical_bytes_used : int;
  physical_capacity : int;
  data_reduction : float;
  provisioned_virtual_bytes : int;
  dedup_blocks : int;
  gc_dedup_blocks : int;
  write_latency : Purity_util.Histogram.t;
  read_latency : Purity_util.Histogram.t;
  io : Purity_sched.Io.stats;
  boot_region_writes : int;
  segments_live : int;
  availability : float;
  cache_hits : int;
  cache_misses : int;
}

let stats t =
  let st = t.st in
  let live_logical = live_logical_bytes st and physical_used = physical_bytes_used st in
  (* the path counters live in the telemetry registry now; [stats] reads
     them back through their handles, so both views always agree *)
  {
    app_writes = Registry.value st.ws.app_writes;
    app_reads = t.app_reads;
    logical_bytes_written = Registry.value st.ws.logical_bytes;
    stored_bytes_written = Registry.value st.ws.stored_bytes;
    live_logical_bytes = live_logical;
    physical_bytes_used = physical_used;
    physical_capacity = Shelf.physical_bytes st.shelf;
    data_reduction = data_reduction ~live_logical ~physical_used;
    provisioned_virtual_bytes = provisioned_bytes st;
    dedup_blocks = Registry.value st.ws.dedup_blocks;
    gc_dedup_blocks = Registry.value st.ws.gc_dedup_blocks;
    write_latency = st.write_lat;
    read_latency = st.read_lat;
    io = Io.stats st.io;
    boot_region_writes = Boot_region.writes st.boot;
    segments_live = Hashtbl.length st.segment_metas;
    availability = availability t;
    cache_hits = Registry.value st.ws.cache_hits;
    cache_misses = Registry.value st.ws.cache_misses;
  }
