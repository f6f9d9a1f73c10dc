(** Per-thread held-lock bookkeeping shared by the lock-set detectors:
    uid lists as source of truth plus an interned {!ctx} bundling the
    four effective lock-sets, with memoised acquire transitions and
    snapshot-restored LIFO releases. *)

type ctx = private {
  c_id : int;
  any_set : Lockset.t;
  any_bus : Lockset.t;
  write_set : Lockset.t;
  write_bus : Lockset.t;
}

type snap
(** state before one acquire, restored by a LIFO release *)

type t = {
  mutable held_any : int list;
  mutable held_write : int list;
  mutable ctx : ctx;
  mutable snaps : snap list;
}

val create : unit -> t

val acquire : t -> int -> Raceguard_vm.Eff.mode -> unit
(** Record one acquisition of lock [uid] in the given mode. *)

val release : t -> int -> unit
(** Drop one acquisition of [uid] (both modes). *)

val effective : t -> atomic:bool -> Lockset.t * Lockset.t
(** The interned (any-mode, write-mode) lock-sets of one access under
    the HWLC bus model: the any-set always holds the virtual bus lock,
    the write-set only for an [atomic] access. *)
