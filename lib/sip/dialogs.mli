(** Transactions and call sessions (dialog state).

    INVITE creates an [InviteTransaction] + [CallSession]; ACK confirms
    under the lock; BYE — handled by a different worker — unlinks both
    under the lock and deletes them outside: more destructor-FP sites
    at distinct report locations. *)

val transaction_class : Raceguard_cxxsim.Object_model.class_desc
val client_transaction_class : Raceguard_cxxsim.Object_model.class_desc
val invite_transaction_class : Raceguard_cxxsim.Object_model.class_desc
val session_class : Raceguard_cxxsim.Object_model.class_desc
val media_session_class : Raceguard_cxxsim.Object_model.class_desc
val call_session_class : Raceguard_cxxsim.Object_model.class_desc

(** Transaction states. *)

val st_proceeding : int
val st_confirmed : int
val st_cancelled : int

type t

val create : alloc:Raceguard_cxxsim.Allocator.t -> stats:Stats.t -> t

val start_call : t -> caller:string -> callee:string -> call_id:string -> cseq:int -> bool
(** False on a duplicate call-id. *)

val confirm : t -> call_id:string -> bool
val cancel : t -> call_id:string -> bool

val end_call : t -> call_id:string -> bool
(** Unlink transaction and session under the lock, delete both outside;
    false for an unknown dialog. *)

val active_count : t -> int
