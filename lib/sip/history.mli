(** Request history: a bounded ring of per-request digest objects,
    shared by all workers.

    Once full, each insert evicts the oldest entry — created by some
    other worker, unlinked under the ring's lock, deleted outside.
    Because the recording call sits inside each handler, every request
    kind contributes its own family of destructor-FP report sites; this
    is how a large C++ server accumulates hundreds of such locations
    (Figure 5's dominant bar). *)

val digest_class : Raceguard_cxxsim.Object_model.class_desc
val stamped_digest_class : Raceguard_cxxsim.Object_model.class_desc
val request_digest_class : Raceguard_cxxsim.Object_model.class_desc

type t

val create : capacity:int -> t

val record : t -> src_id:int -> meth:int -> uri:string -> outcome:int -> unit
(** Build a digest, swap it into the ring under the lock, delete the
    evicted digest outside it. *)

val clear : t -> unit
(** Drain the ring at shutdown. *)
