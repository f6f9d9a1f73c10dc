(** The debugging-process driver (Figure 3).

    [Instrumentation → Compilation → Execution(VM) → Results]: the
    simulated application is always built {e with} the automatic
    annotation (the client requests are no-ops under normal execution,
    §3.1), one VM run executes the workload, and any number of detector
    configurations observe the same serialised event stream
    simultaneously — so configuration comparisons (Figures 5/6) see
    identical schedules and differ only in the algorithm. *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs

type config = {
  seed : int;
  policy : Vm.Engine.policy;
  tools : Vm.Tool.t list;  (** attached first, in order; the caller keeps the handles *)
  helgrind_configs : (string * Det.Helgrind.config) list;
      (** configurations run side by side on the same event stream *)
  on_report : (string -> Det.Report.t -> unit) option;
      (** handed each [helgrind_configs] occurrence with its name *)
  server : Sip.Proxy.config;
  max_ops : int;
  tracer : Obs.Trace.t option;
      (** offered every VM event, ahead of [tools], and every detector
          decision *)
  faults : Raceguard_faults.Injector.t option;
      (** fault injector consulted by the engine's spawn/lock hooks *)
}

let default =
  {
    seed = 1;
    policy = Vm.Engine.Random_seeded;
    tools = [];
    helgrind_configs =
      [
        ("Original", Det.Helgrind.original);
        ("HWLC", Det.Helgrind.hwlc);
        ("HWLC+DR", Det.Helgrind.hwlc_dr);
      ];
    on_report = None;
    server = Sip.Proxy.default_config;
    max_ops = 50_000_000;
    tracer = None;
    faults = None;
  }

type result = {
  helgrind : (string * Det.Helgrind.t) list;
  outcome : Vm.Engine.outcome;
  oracle : Sip.Workload.run_result option;
  metrics : Obs.Metrics.snapshot;  (** this run's delta of the global registry *)
}

(** Run an arbitrary VM main function under the configured detectors. *)
let run_main config main =
  let vm_config =
    {
      Vm.Engine.seed = config.seed;
      policy = config.policy;
      max_ops = config.max_ops;
      faults = config.faults;
    }
  in
  let vm = Vm.Engine.create ~config:vm_config () in
  (* the ring's VM record of an event precedes every tool's *)
  Option.iter (fun tr -> Vm.Engine.add_tool vm (Vm.Tool.tracer tr)) config.tracer;
  List.iter (Vm.Engine.add_tool vm) config.tools;
  let helgrind =
    List.map
      (fun (name, hc) -> (name, Det.Helgrind.create ?on_report:(Option.map (fun f -> f name) config.on_report) hc))
      config.helgrind_configs
  in
  List.iter
    (fun (_, h) ->
      (match config.tracer with Some tr -> Det.Helgrind.set_tracer h tr | None -> ());
      Vm.Engine.add_tool vm (Det.Helgrind.tool h))
    helgrind;
  let before = Obs.Metrics.snapshot () in
  let value = ref None in
  let outcome = Vm.Engine.run vm (fun () -> value := Some (main ())) in
  let metrics = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
  ({ helgrind; outcome; oracle = None; metrics }, !value)

(** Run one of the eight SIP test cases. *)
let run_test_case config tc =
  let transport = Sip.Transport.create () in
  let result, oracle =
    run_main config (Sip.Workload.run_test_case ~transport ~server_config:config.server tc)
  in
  { result with oracle }

let locations_of result name =
  match List.assoc_opt name result.helgrind with
  | Some h -> Det.Helgrind.locations h
  | None -> invalid_arg ("no helgrind config named " ^ name)

let location_count result name =
  match List.assoc_opt name result.helgrind with
  | Some h -> Det.Helgrind.location_count h
  | None -> invalid_arg ("no helgrind config named " ^ name)
