(** The debugging-process driver (Figure 3): one VM run, any number of
    detector configurations observing the same serialised event stream.

    The simulated application is always built {e with} the automatic
    annotations (client requests are no-ops under normal execution,
    §3.1); each attached configuration decides independently whether to
    honour them, so configuration comparisons (Figures 5/6) see
    identical schedules and differ only in the algorithm. *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs

type config = {
  seed : int;
  policy : Vm.Engine.policy;
  tools : Vm.Tool.t list;
      (** attached first, in list order, ahead of the Helgrind
          instances.  Any observer goes here: a DJIT, FastTrack or
          lock-order detector, a registry sink, the binary trace
          recorder.  The caller creates them, keeps the handles and
          reads them after the run; the result carries nothing of
          theirs.  Every tool is a pure observer, so schedule, RNG
          draws and every other tool's reports are unchanged by its
          presence. *)
  helgrind_configs : (string * Det.Helgrind.config) list;
      (** named Helgrind configurations run side by side, after
          [tools], and read back by name through {!locations_of}.
          Kept beside [tools] because the Figure 5/6 tables and
          perfbench's sip-detect workload build their configurations
          and read their pins through it. *)
  server : Sip.Proxy.config;
  max_ops : int;
  tracer : Obs.Trace.t option;
      (** installed on the VM and on every [helgrind_configs]
          instance, so one ring receives both VM events and detector
          decisions *)
  faults : Raceguard_faults.Injector.t option;
      (** fault injector handed to the engine (spawn-delay and
          lock-delay faults); share the instance wired into the
          transport and server config for one coherent plan *)
}

val default : config
(** Seed 1, random scheduling, no [tools], the three Figure-6
    configurations (Original / HWLC / HWLC+DR), instrumented server
    build. *)

type result = {
  helgrind : (string * Det.Helgrind.t) list;  (** in [helgrind_configs] order *)
  outcome : Vm.Engine.outcome;
  oracle : Sip.Workload.run_result option;
      (** functional verdict when the run was a SIP test case *)
  wall_seconds : float;
  metrics : Obs.Metrics.snapshot;
      (** this run's delta of the process-global metrics registry
          (VM counters, detector fast-path hits, lockset memo stats) *)
}

val run_main : config -> (unit -> 'a) -> result * 'a option
(** Run an arbitrary VM main function under the configured detectors. *)

val run_test_case : config -> Sip.Workload.test_case -> result
(** Run one of the eight SIP test cases (server + drivers + shutdown). *)

val locations_of : result -> string -> (Det.Report.t * int) list
(** Deduplicated locations of a named configuration; raises
    [Invalid_argument] for an unknown name. *)

val location_count : result -> string -> int
