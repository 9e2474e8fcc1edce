(* The benchmark's host clock: processor time of this process (user +
   system), never wall time. Every host timing in the benchmark reads it
   through [cpu_s], the one waived clock read in these files, so
   purity.lint's determinism rule still flags any other. *)

let[@purity.lint.allow
     "determinism: the benchmark measures what the simulator costs on the \
      host; its readings never feed back into the simulated run"] cpu_s () =
  Sys.time ()

(* Nanoseconds, for [Kernel_stats.set_clock] in the traced run. *)
let cpu_ns () = int_of_float (cpu_s () *. 1e9)
