(** The SIP proxy / registrar server — the application under test.

    A scaled-down transliteration of the paper's 500 kLOC commercial
    signalling server: thread-per-request (or thread-pool) concurrency,
    shared state behind mutexes and one rw-lock, copy-on-write strings,
    destructor-heavy object traffic — and the real bugs the paper found
    (§4.1) injected, B1, B3 and B4 individually toggleable.

    With [config.resilient] set, the server also exercises the
    RFC 3261 recovery paths the chaos matrix stresses: a response cache
    absorbing retransmissions, timer-driven 200 retransmission with
    exponential backoff until ACK, request deadlines, and overload
    shedding with 503 + Retry-After.  Their profile is fixed: the
    listener sheds once the pool queue is 4 deep, a request older than
    400 ticks when dequeued is answered 503, and every deliberate 503
    carries [Retry-After: 60]. *)

module Refstring = Raceguard_cxxsim.Refstring
module Allocator = Raceguard_cxxsim.Allocator

type pattern =
  | Per_request  (** one worker thread per datagram (§3.3, Figure 10) *)
  | Pool of int  (** fixed worker pool fed by a queue (§4.2.3, Figure 11) *)

type config = {
  alloc_mode : Allocator.mode;  (** container allocator strategy (§4) *)
  pattern : pattern;
  enable_watchdog : bool;
      (** B1: the racy home-grown deadlock detector; default off, as
          the authors "disabled it for further experiments" *)
  shutdown_racy : bool;  (** B3: Stats destroyed before the logger exits *)
  use_leaked_ref : bool;  (** B4: callers use the Figure-7 accessor *)
  require_auth : bool;
      (** challenge REGISTERs with a digest nonce (401 flow) *)
  resilient : bool;
      (** [false] = the legacy server (tier-1 behaviour, unchanged);
          [true] enables the recovery paths *)
  registrar_sharding : Registrar.sharding;
      (** [Unsharded] (the default) keeps the historical single-mutex
          registrar byte-identical; [Sharded] stripes it with online
          rebalance (the T9/T10 storm surface) *)
}

val default_config : config
(** Direct allocator, thread-per-request, watchdog off, bugs B2–B6
    present, not resilient.  The server is always the instrumented
    build (delete and queue annotations, no-ops unless a detector
    honours them, §3.1), and its allocator consults the fault injector
    of the transport it is started on ({!Transport.faults}). *)

type t

val start : transport:Transport.t -> config -> t
(** Boot the server (call from inside the VM): statistics, logger,
    registrar, dialog tables, domain data (+ reload thread), routing,
    request history, timer wheel, optional watchdog, listener — plus
    the response cache and resend timer when resilient. *)

val post_stop : t -> unit
(** Ask the listener to stop (send the stop datagram; admin traffic
    bypasses fault injection). *)

val shutdown : t -> unit
(** Join workers and service threads and tear the server down —
    in the racy order when [config.shutdown_racy]. *)

val requests_handled : t -> int

val sheds : t -> int
(** 503s deliberately sent by overload control (high-water + deadline). *)

val cache_hits : t -> int
(** Retransmissions absorbed by the response cache. *)

val retransmits : t -> int
(** Timer-driven 200 retransmissions sent while awaiting ACK. *)

val bound_aors : t -> string list
(** Currently bound AORs (host-side mirror; safe after shutdown) — the
    chaos runner's lost-registration oracle. *)

val registrar_audit : t -> string list
(** {!Registrar.audit} of the server's registrar — the chaos "shards"
    oracle evidence (host-side, safe after shutdown). *)

val registrar_shard_count : t -> int
val registrar_resizes : t -> int
val registrar_migrations : t -> int

(** {1 Exposed for white-box tests} *)

val stop_wire : string
val request_ctx_class : Raceguard_cxxsim.Object_model.class_desc
val extract_domain : string -> string
val extract_user : string -> string
