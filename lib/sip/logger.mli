(** Asynchronous logging: workers enqueue [LogRecord] objects, a
    dedicated logger thread formats and deletes them.

    The handoff goes through a message queue — synchronisation the
    lock-set algorithm cannot see (§4.2.3) — so the records'
    destructor chains in the logger thread are reported without the DR
    annotation.  The logger also calls the non-thread-safe
    {!Timeutil.ctime} (bug B5) and participates in the shutdown-order
    bug B3 via its final statistics bump. *)

module Loc = Raceguard_util.Loc

val record_class : Raceguard_cxxsim.Object_model.class_desc
val log_record_class : Raceguard_cxxsim.Object_model.class_desc

type t

val create : stats:Stats.t -> time:Timeutil.t -> t
val start : t -> unit

val log : t -> loc:Loc.t -> level:int -> string -> unit
(** Called by worker threads: allocate a record and enqueue it. *)

val stop : t -> unit
(** Bus-locked store to the stop flag. *)

val join : t -> unit

val destroy : t -> unit
(** Drain any records still enqueued into the sink.  Guarantees no
    buffered line is silently dropped even under the B3 shutdown
    ordering (Stats destroyed before the logger stops) — the B3 bug
    itself stays injected; this only makes the loss impossible. *)

val lines : t -> string list
(** The host-side "log file", in order. *)
