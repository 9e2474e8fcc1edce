(* The scenario framework both torture checkers run on. A system (the
   single array, the stretched pod) supplies its plans, setup, event
   execution, final audit and execution digest; the framework owns the
   run loop, greedy trace shrinking, reports, and double execution:
   [check_seed] runs every passing plan twice and compares digests, so a
   nondeterministic replay fails even when no byte is wrong.

   Everything is deterministic per plan — payloads derive from the plan
   seed, faults resolve from execution state — so re-running a (possibly
   shrunk) event list reproduces a failure bit-for-bit. *)

module Clock = Purity_sim.Clock

exception Violation of string

(* Start an asynchronous call, drain the clock, and return its result;
   [None] if it never completed (e.g. a crash landed under it). *)
let await clock f =
  let r = ref None in
  f (fun x -> r := Some x);
  Clock.run clock;
  !r

(* Fold one externally visible value into an execution digest. *)
let mix digest v = (digest * 31) + (Hashtbl.hash v land 0xFFFFFF)

type ('op, 'fault) event =
  | Op of 'op
  | Fault of 'fault
  | Timed of { delay_us : float; fault : 'fault }
      (* armed on the simulation clock when reached (see [dispatch]) *)

let pp_event pp_op pp_fault ppf = function
  | Op op -> pp_op ppf op
  | Fault f -> Format.fprintf ppf "! %a" pp_fault f
  | Timed { delay_us; fault } ->
    Format.fprintf ppf "! after %.0fus: %a" delay_us pp_fault fault

(* one numbered line per event, as failure reports print a trace *)
let pp_events pp_op pp_fault ppf events =
  List.iteri (fun i e -> Format.fprintf ppf "%3d. %a@," i (pp_event pp_op pp_fault) e) events

(* Run one event: an op or an untimed fault now; a timed fault is armed
   on the clock, so it fires in the middle of whatever runs next. *)
let dispatch clock ~op ~fault = function
  | Op o -> op o
  | Fault f -> fault f
  | Timed { delay_us; fault = f } -> Clock.schedule clock ~delay:delay_us (fun () -> fault f)

let remove_slice l i n = List.filteri (fun j _ -> j < i || j >= i + n) l

(* Greedy delta-debugging: try dropping ever-smaller slices, keeping any
   removal after which the scenario still fails. [fails] must be a pure
   function of the event list — which it is, because events are
   self-contained (payload ids, ranks) rather than positions in a shared
   random stream. *)
let shrink ?(budget = 250) ~fails events failure =
  let evs = ref events and last = ref failure and left = ref budget in
  let changed = ref true in
  while !changed && !left > 0 do
    changed := false;
    let size = ref (max 1 (List.length !evs / 2)) in
    while !size >= 1 && !left > 0 do
      let i = ref 0 in
      while !i + !size <= List.length !evs && !left > 0 do
        decr left;
        let cand = remove_slice !evs !i !size in
        match fails cand with
        | Some failure ->
          evs := cand;
          last := failure;
          changed := true
        | None -> i := !i + !size
      done;
      size := !size / 2
    done
  done;
  (!evs, !last)

module type SYSTEM = sig
  (* the plan vocabulary: a seed plus a self-contained event list *)
  type op
  type fault
  type t
  type gen_config

  val default_gen : gen_config
  val generate : ?cfg:gen_config -> int64 -> t
  val seed : t -> int64
  val events : t -> (op, fault) event list
  val with_events : t -> (op, fault) event list -> t
  val pp : Format.formatter -> t -> unit

  (* execution; [setup], [exec_event] and [audit] raise {!Violation} *)
  type config
  type ctx

  val kind : string  (* the contract, for reports: "durability", ... *)
  val default_config : config
  val setup : config -> t -> ctx
  val exec_event : ctx -> (op, fault) event -> unit
  val audit : ctx -> unit

  val digest : ctx -> int
  (* the run's externally visible end state, read after [audit] *)
end

module Make (S : SYSTEM) = struct
  (* Execute [plan]; [Ok digest], or [Error (step, violation)] with the
     index of the event the run failed at (the event count if the final
     audit failed). *)
  let run_plan ?(config = S.default_config) plan =
    let step = ref 0 in
    try
      let ctx = S.setup config plan in
      List.iteri
        (fun i ev ->
          step := i;
          S.exec_event ctx ev)
        (S.events plan);
      step := List.length (S.events plan);
      S.audit ctx;
      Ok (S.digest ctx)
    with
    | Violation msg -> Error (!step, msg)
    | exn -> Error (!step, "exception: " ^ Printexc.to_string exn)

  type report = {
    seed : int64;
    step : int;  (** event index the (shrunk) run failed at *)
    violation : string;
    trace : (S.op, S.fault) event list;  (** shrunk reproduction *)
    original_events : int;
    plan : S.t;  (** the plan [trace] was shrunk from *)
  }

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>%s violation at seed %Ld (step %d):@,  %s@,%a@,reproduce with: run_plan on the plan above  (or re-run this seed)@]"
      S.kind r.seed r.step r.violation S.pp (S.with_events r.plan r.trace)

  let report_to_string r = Format.asprintf "%a" pp_report r

  let report plan (trace, (step, violation)) =
    let original_events = List.length (S.events plan) in
    { seed = S.seed plan; step; violation; trace; original_events; plan }

  let shrunk ?config ?shrink_budget plan failure =
    let fails evs =
      match run_plan ?config (S.with_events plan evs) with
      | Ok _ -> None
      | Error f -> Some f
    in
    report plan (shrink ?budget:shrink_budget ~fails (S.events plan) failure)

  (* Run one hand-built plan; on failure, shrink it and report. *)
  let check_plan ?config plan =
    match run_plan ?config plan with
    | Ok _ -> Ok ()
    | Error failure -> Error (shrunk ?config plan failure)

  (* Generate the seed's plan and run it twice: it must pass both times
     with identical execution digests; [Ok digest] then. *)
  let check_seed ?(gen = S.default_gen) ?config ?shrink_budget seed =
    let plan = S.generate ~cfg:gen seed in
    let run () = run_plan ?config plan in
    match Result.bind (run ()) (fun d1 -> Result.map (fun d2 -> (d1, d1 = d2)) (run ())) with
    | Ok (d, true) -> Ok d
    | Ok (_, false) ->
      let evs = S.events plan in
      let violation = "nondeterministic replay: execution digests differ" in
      Error (report plan (evs, (List.length evs, violation)))
    | Error failure -> Error (shrunk ?config ?shrink_budget plan failure)

  (* Run seeds [base, base+count); return the first failure, shrunk. *)
  let sweep ?gen ?config ?shrink_budget ~base ~count () =
    let rec go i =
      if i >= count then None
      else
        let seed = Int64.add base (Int64.of_int i) in
        match check_seed ?gen ?config ?shrink_budget seed with
        | Ok _ -> go (i + 1)
        | Error report -> Some report
    in
    go 0
end
