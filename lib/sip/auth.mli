(** Digest-style authentication for REGISTER (RFC 2617 reduced to its
    concurrency-relevant skeleton): a shared mutex-guarded nonce cache
    whose entries are single-use objects deleted after unlinking —
    one more destructor-FP site family.  Enabled by
    [Proxy.config.require_auth]. *)

val token_class : Raceguard_cxxsim.Object_model.class_desc
val nonce_class : Raceguard_cxxsim.Object_model.class_desc

type t

val create : alloc:Raceguard_cxxsim.Allocator.t -> t

val response_for : nonce:int -> int
(** The client-side digest computation for a challenge nonce. *)

val challenge : t -> user:string -> int
(** Issue (and store) a nonce for [user], replacing any previous one. *)

val verify : t -> user:string -> response:int -> bool
(** Consume the user's nonce and check the digest; false for unknown
    users, consumed nonces, or wrong responses. *)
