(** Unified lock identifiers for lock-sets: the virtual hardware bus
    lock (uid 0), program mutexes (odd uids) and rw-locks (even
    uids > 0) share one id space. *)

type t = int

val bus : t
val of_mutex : int -> t
val of_rwlock : int -> t
val pp : name_of:(t -> string) -> Format.formatter -> t -> unit

val of_sync_ref : Raceguard_vm.Event.sync_ref -> t option
(** [None] for condition variables and semaphores (not locks). *)
