(** Chaos matrix runner: fault plans × SIP test cases × resilience
    on/off, each cell one deterministic VM run judged by post-run
    invariant oracles.  (seed, plan) ⇒ byte-identical digests. *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Faults = Raceguard_faults

type config = {
  seed : int;
  plans : Faults.Plan.t list;
  tests : Sip.Workload.test_case list;
  shard_plans : Faults.Plan.t list;
      (** shard-targeted plans — crossed with [scenario_tests] only,
          never with [tests], so the T1–T8 grid is untouched *)
  scenario_tests : Sip.Workload.test_case list;
      (** compiled [raceguard-scenario/1] storm scenarios (T9/T10);
          their cells run against a sharded registrar and carry the
          extra {b shards} invariant oracle *)
  fast_path : bool;
      (** detector fast-path toggle — guaranteed not to change digests *)
  max_ops : int;
  domains : int;
      (** worker domains for the cell grid (the domain pool,
          [lib/par/]); 1 = sequential, 0 = auto — guaranteed not to
          change digests either *)
  record_dir : string option;
      (** when set, every cell also records a [raceguard-trace/1]
          binary trace into [<dir>/<plan>-<test>-<res|base>.rgt]; the
          recorder is a pure observer, so digests are unchanged *)
}

val default : config
(** All shipped plans × all eight chaos test cases, plus all three
    shard plans × T9/T10, × both resilience settings. *)

val quick : config
(** The CI smoke subset: plans [drop]/[dup]/[oom] on T2 and T6, plus
    [shard-storm] on T9/T10. *)

val cell_resilience : Sip.Proxy.resilience
(** The knobs every resilient cell runs with (low high-water mark so
    pool cells actually shed). *)

(** One post-run invariant check. *)
type oracle = { o_name : string; o_ok : bool; o_detail : string }

type cell = {
  cl_plan : string;
  cl_test : string;
  cl_resilient : bool;
  cl_oracles : oracle list;
  cl_violations : string list;
  cl_locations : int;
  cl_sig_digest : string;
  cl_behavior_digest : string;
  cl_unanswered : int;
  cl_wrong_finals : int;
  cl_shed_seen : int;
  cl_sheds : int;
  cl_cache_hits : int;
  cl_retransmits : int;
  cl_injected : Faults.Injector.counts;
  cl_thread_failures : int;
  cl_stop : Vm.Engine.stop;  (** why the cell's run stopped *)
  cl_ops : int;  (** VM operations the run executed *)
  cl_wall : float;
  cl_sharded : bool;  (** scenario cell against a sharded registrar *)
  cl_shard_count : int;  (** final shard count (1 when unsharded) *)
  cl_resizes : int;
  cl_migrations : int;
  cl_shard_audit : string list;  (** {!Sip.Registrar.audit} violations *)
}

val run_cell :
  config -> plan:Faults.Plan.t -> resilient:bool -> Sip.Workload.test_case -> cell

val grid : config -> (Faults.Plan.t * Sip.Workload.test_case * bool) array
(** The cell grid in the order the sequential runner executes it:
    plans outermost, then tests, resilient before baseline; the T1–T8
    grid first, then the shard-plan × scenario grid.  Exposed
    so harnesses (the bench scaling suite) can drive {!run_cell} over
    the pool themselves. *)

type report = {
  rp_seed : int;
  rp_fast_path : bool;
  rp_domains : int;
  rp_cells : cell list;
  rp_resilient_violations : int;
  rp_baseline_violations : int;
}

val run : config -> report
(** Runs the cell grid on [config.domains] worker domains; the report
    (cell order, every digest) is identical for any domain count. *)

val passed : report -> bool
(** Resilient cells all clean AND at least one baseline cell violates
    an oracle — the asymmetry the resilience layer must produce. *)

val matrix_digest : report -> string
(** MD5 over every cell's (plan, test, resilient, signature digest,
    behaviour digest, violations) — the determinism pin. *)

val to_json : ?config:config -> report -> Obs.Json.t
(** Schema [raceguard-chaos/1]. *)

val pp : Format.formatter -> report -> unit
