module Clock = Purity_sim.Clock

type record = { seq : int64; payload : string }

type t = {
  clock : Clock.t;
  latency_us : float;
  mb_s : float;
  cap : int;
  log : record Queue.t;
  mutable committed : int; (* commits accepted: the next one's position *)
  mutable used : int;
  mutable free_at : float;
  mutable losses : int;
}

let create ?(latency_us = 15.0) ?(mb_s = 700.0) ?(capacity = 16 * 1024 * 1024) ~clock () =
  {
    clock;
    latency_us;
    mb_s;
    cap = capacity;
    log = Queue.create ();
    committed = 0;
    used = 0;
    free_at = 0.0;
    losses = 0;
  }

(* a record's log footprint: its payload plus a fixed 16 B header *)
let record_bytes ~payload_len = payload_len + 16
let record_size r = record_bytes ~payload_len:(String.length r.payload)
let fits t ~payload_len = t.used + record_bytes ~payload_len <= t.cap
let refuse t k = Clock.schedule t.clock ~delay:1.0 (fun () -> k (Error `Full))

let commit t r k =
  if not (fits t ~payload_len:(String.length r.payload)) then refuse t k
  else begin
    let size = record_size r in
    Queue.add r t.log;
    t.committed <- t.committed + 1;
    t.used <- t.used + size;
    let transfer = float_of_int size /. (t.mb_s *. 1024.0 *. 1024.0 /. 1e6) in
    let start = Float.max (Clock.now t.clock) t.free_at in
    let finish = start +. t.latency_us +. transfer in
    t.free_at <- finish;
    Clock.schedule_at t.clock ~at:finish (fun () -> k (Ok ()))
  end

let position t = t.committed

(* the log holds the newest records, at consecutive positions *)
let oldest_position t = t.committed - Queue.length t.log

let trim_below t pos =
  while oldest_position t < pos && not (Queue.is_empty t.log) do
    t.used <- t.used - record_size (Queue.pop t.log)
  done

(* Fault injection: the device loses its contents (a dead SLC part).
   The part itself keeps working — later commits land normally — so the
   exposure window is exactly the records that were pending at the loss. *)
let lose t =
  Queue.clear t.log;
  t.used <- 0;
  t.losses <- t.losses + 1

let losses t = t.losses
let records t = List.of_seq (Queue.to_seq t.log)
let used_bytes t = t.used
let capacity t = t.cap
