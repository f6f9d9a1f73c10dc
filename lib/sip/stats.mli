(** Server statistics counters — partly racy by design (bug B6): the
    fast-path counters use unlocked read-modify-write from every
    worker, the "proper" ones take a mutex. *)

module Loc = Raceguard_util.Loc

type t

(** Counter word offsets (for {!get}). *)

val total_requests : int
val total_responses : int
val parse_errors : int
val lines_logged : int
val active_calls : int
val registered_users : int
val method_base : int

val create : unit -> t

val bump_racy : t -> int -> loc:Loc.t -> unit
(** The unlocked load-increment-store (B6). *)

val incr_total_requests : t -> unit
val incr_total_responses : t -> unit
val incr_parse_errors : t -> unit
val incr_lines_logged : t -> unit

val incr_method : t -> meth_code:int -> unit
(** Per-method racy counter; out-of-range codes are ignored. *)

val incr_active_calls : t -> unit
val decr_active_calls : t -> unit
val incr_registered : t -> unit
val decr_registered : t -> unit

val get : t -> int -> loc:Loc.t -> int

val destroy : t -> unit
(** Free the counter block — half of the shutdown-order bug B3 when
    called before the logger thread is joined. *)
