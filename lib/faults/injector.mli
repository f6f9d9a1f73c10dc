(** The seeded decision engine behind a {!Plan}.

    One injector instance serves one run.  Each fault category draws
    from its own [Util.Rng] stream (derived with [Rng.split] from the
    run seed and the plan name), so consulting one category never
    perturbs another — and, crucially, never perturbs the scheduler's
    stream.

    Every "did it fire?" outcome is counted once, in the metrics
    registry: [faults.injected.datagram_drop], [datagram_duplicate],
    [datagram_delay] (reorders included), [datagram_corrupt],
    [alloc_failure], [spawn_delay] and [lock_delay].  The instance
    keeps no counts of its own: a run's counts are its metric delta
    ({!Raceguard_obs.Metrics.diff}, which [Runner.run_main] returns as
    [result.metrics]), and the chaos cells and perfbench read them
    there.  The per-instance [counts] record, [total] and
    [counts_to_json] that once mirrored these counters are gone. *)

exception Out_of_memory
(** Raised by the allocator when an allocation-failure fault fires. *)

type t

type datagram_decision =
  | Deliver
  | Drop
  | Duplicate
  | Delay_by of int
  | Corrupt_with of int  (** payload xor key for deterministic mangling *)

val hash_name : string -> int
(** djb2 over the bytes of a name, kept to 30 bits: how plan and cell
    names are mixed into injector seeds. *)

val create : seed:int -> plan:Plan.t -> t
val plan : t -> Plan.t

val is_off : t -> bool
(** True when the plan is {!Plan.none}: every hook below is a
    constant-time no-op returning the "nothing happened" value. *)

val datagram : t -> datagram_decision
(** Decide the fate of one outbound datagram.  Reorder faults
    materialise as short {!Delay_by} postponements. *)

val alloc_fails : t -> bool
(** Consulted once per pool allocation; true = raise OOM upstream. *)

val spawn_delay : t -> int
(** Extra ticks before a freshly spawned thread first runs (0 = none). *)

val lock_delay : t -> int
(** Extra ticks a thread stalls inside a mutex acquisition (0 = none). *)

val corrupt_wire : key:int -> string -> string
(** Deterministically mangle a payload: flips bytes chosen by [key].
    Pure — exposed for tests. *)
