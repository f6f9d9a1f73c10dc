(** Metrics registry: named counters and gauges with snapshot / merge
    / diff / JSON export.

    Instruments are registered once (typically at module init) and
    updated through their handle — the hot path is a single
    domain-local array store, no hashing or allocation.  Counters and
    gauges share one slot table per registry; instrument {e state} is
    domain-local ([Domain.DLS]): each domain sees only the work it did,
    so independent cells running on the multicore pool ([lib/par/])
    never interfere, and their per-cell [snapshot]/[diff] deltas
    combine with [merge].  Consumers take [snapshot]s of the [default]
    registry and [diff] them to get per-run deltas. *)

type registry

val create : unit -> registry
val default : registry
(** The process-wide registry used when [?registry] is omitted. *)

(** {1 Instruments}

    Registering the same name twice in one registry raises
    [Invalid_argument], whichever kinds the two registrations ask for. *)

type counter
type gauge

val counter : ?registry:registry -> string -> counter
val gauge : ?registry:registry -> string -> gauge

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Snapshots} *)

type snapshot = { s_counters : (string * int) list; s_gauges : (string * int) list }
(** Both lists are sorted by name. *)

val snapshot : ?registry:registry -> unit -> snapshot
val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Combine snapshots from independent runs: counters add, gauges keep
    the max.  Associative and commutative, with [empty] as identity
    (qcheck-tested). *)

val diff : before:snapshot -> snapshot -> snapshot
(** Per-run delta: counters subtract (clamped at 0), gauges keep the
    [after] level. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option

val to_json : snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}}], each sorted by name. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable dump; zero-valued instruments are omitted. *)
