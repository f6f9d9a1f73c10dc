(** Small self-contained VM programs used by experiments and tests.
    Each is a VM main function: run with
    {!Raceguard_vm.Engine.run} or {!Runner.run_main}. *)

val stringtest : unit -> unit
(** Figure 8: stringtest.cpp — a shared CoW string whose bus-locked
    refcount the original bus-lock model misreports. *)

val false_negative_schedule : unit -> unit
(** §4.3: one unlocked writer, one coincidentally locked writer;
    whether the lock-set algorithm reports depends on the schedule. *)

val handoff_per_request : unit -> unit
(** Figure 10: ownership transfer through thread create/join — silent
    with thread segments. *)

val handoff_pool : unit -> unit
(** Figure 11: the same transfer through a message queue and a
    pre-started worker — false positives unless annotations are
    honoured (the queue and the post/wait handback are annotated, as in
    the instrumented build). *)

val high_contention : ?iters:int -> unit -> unit
(** Synthetic detector-hot-path microbenchmark: 4 workers hammering 8
    shared words under 2 striped mutexes, plus a bus-locked refcount —
    disciplined (zero reports), Shared-Modified steady state. *)

val read_shared : ?iters:int -> unit -> unit
(** Initialise 16 words once, then 4 lock-free concurrent readers — the
    Shared-RO steady state. *)

val read_shared_churn :
  ?threads:int -> ?rounds:int -> ?iters:int -> ?words:int -> unit -> unit
(** Fork-join rounds of concurrent readers, each followed by
    single-threaded sweeps: race-free promote/demote churn for adaptive
    epoch detectors (every round re-promotes; every join opens a
    demotion window). *)

val lock_order_inversion : force_deadlock:bool -> unit -> unit
(** Two locks taken in opposite orders; [force_deadlock] arranges the
    overlap so the run actually deadlocks. *)

(** {1 Shipped SIP storm scenarios ([raceguard-scenario/1])} *)

module Scenario = Raceguard_sip.Workload.Scenario

val t9_storm : Scenario.t
(** T9: registration storm with shedding/backoff against the sharded
    registrar (includes the hash-collision AOR pair). *)

val t10_rebalance : Scenario.t
(** T10: online shard rebalance under live traffic — fillers cross the
    growth threshold while a refresher races the migration window. *)

val sip_scenarios : Scenario.t list

val sip_lookup : string -> Scenario.t option
(** Shipped scenario by test-case name ("T9", "T10"). *)
