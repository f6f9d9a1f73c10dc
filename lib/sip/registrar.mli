(** The registrar: user → contact bindings — single-mutex or sharded.

    Binding objects are created by the worker handling a REGISTER and
    later deleted by {e different} workers (refresh, unregister,
    expiry) after being unlinked under the lock — correct code whose
    destructor chains are the paper's dominant false-positive class
    until the DR annotation suppresses them.

    The default [Unsharded] mode keeps the historical single-mutex
    layout (byte-identical VM operation sequence).  [Sharded] stripes
    the table over per-shard mutexes with online resize/rebalance; the
    [Resilient] flavor keeps the {!audit} invariants under every fault
    plan, while [Legacy_striped] carries three injected bug classes
    (unlocked cross-shard transfer, resize racing a refresh,
    stale-router read) plus hash-collision blindness as ground truth
    for the detectors and the chaos oracles. *)

module Refstring = Raceguard_cxxsim.Refstring

val binding_class : Raceguard_cxxsim.Object_model.class_desc
val contact_binding_class : Raceguard_cxxsim.Object_model.class_desc

val hash_string : string -> int
(** djb2-style hash used as container key for AORs/call-ids. *)

val collision_pair : unit -> string * string
(** Two distinct users whose [user ^ "@example.com"] AORs collide
    under {!hash_string} — the collision-blindness regression input. *)

type flavor =
  | Resilient  (** invariant-clean striped implementation *)
  | Legacy_striped  (** injected shard bug classes + collision blindness *)

type sharding =
  | Unsharded
  | Sharded of {
      flavor : flavor;
      initial : int;  (** shard count at creation (≥ 1) *)
      grow_at : int;
          (** double the shard count when total bindings reach
              [grow_at × current shard count]; 0 = manual growth only *)
      max_shards : int;
    }

type t

val create :
  ?sharding:sharding -> alloc:Raceguard_cxxsim.Allocator.t -> stats:Stats.t -> unit -> t
(** [sharding] defaults to [Unsharded], which is byte-identical to the
    historical single-mutex registrar. *)

val register :
  t ->
  aor:string ->
  contact:string ->
  cseq:int ->
  expires:int ->
  [ `Registered | `Refreshed ]
(** Add or refresh a binding; a refresh unlinks the old binding under
    the lock and deletes it outside (the FP-generating pattern).  On a
    sharded registrar the triggering worker also grows the table when
    the load factor crosses [grow_at]. *)

val unregister : t -> aor:string -> bool

val lookup : t -> aor:string -> Refstring.t option
(** Current contact for an AOR, as a {e copy} of the stored string
    (caller must release it); [None] if absent or expired. *)

val expire_stale : t -> int
(** Delete every expired binding; returns how many. *)

val size : t -> int

val bound_aors : t -> string list
(** Host-side mirror of the currently bound AORs, sorted — post-run
    oracle use only (no VM traffic, safe after shutdown).  A binding a
    legacy-striped registrar duplicated across shards appears once per
    holding shard. *)

(** {1 Sharding introspection} *)

val rebalance : t -> bool
(** Force one shard-count doubling with binding migration (VM context
    required); [false] on an unsharded registrar or at [max_shards]. *)

val shard_count : t -> int
(** The current shard count, which routing reads.  Resizes and
    migrations are counted only in the metrics registry
    ([sip.registrar.shard.resizes] and [.migrations]). *)

val route : t -> aor:string -> int
(** Which shard the AOR routes to at the current shard count
    (host-side computation, no VM traffic). *)

val audit : t -> string list
(** Post-run invariant audit (host-side, safe after shutdown): empty
    on a correct registrar.  Violations are rendered as
    ["lost:AOR"], ["ghost:AOR"], ["dup:AOR"], ["stale-contact:AOR"],
    ["misplaced:AOR"] and ["lock-order:i>j"] — the chaos "shards"
    oracle evidence. *)
