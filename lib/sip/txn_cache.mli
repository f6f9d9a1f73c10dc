(** Server transaction / response cache (RFC 3261 §17.2 flavour).

    The resilient proxy remembers the final response of every completed
    transaction so a retransmitted request is answered from the cache
    instead of being re-executed (re-execution is what turns a
    duplicated INVITE into a spurious 482).  Entries live in VM memory
    behind a {e reader-writer} lock: lookups take the read lock and
    bump a hit counter with a bus-locked increment, stores take the
    write lock; a replaced entry is unlinked under the write lock and
    deleted outside it — new detector-visible synchronization the
    chaos matrix exercises, recognised as recovery-path traffic by the
    ground-truth classifier ({!Bugs.recovery_path}). *)

val txn_entry_class : Raceguard_cxxsim.Object_model.class_desc

type t

val create : alloc:Raceguard_cxxsim.Allocator.t -> t

val key : call_id:string -> cseq:int -> meth:int -> int
(** Transaction key: Call-ID × CSeq × method (CANCEL shares the
    INVITE's CSeq but is a distinct transaction). *)

val lookup : t -> key:int -> string option
(** The cached final response wire, if this transaction already
    completed (read lock + atomic hit count). *)

val store : t -> key:int -> status:int -> wire:string -> unit
(** Record a transaction's final response (write lock; replaces any
    previous entry, deleting it outside the lock). *)

val size : t -> int
val hits : t -> int  (** host-side mirror of total lookup hits *)

val destroy : t -> unit
(** Delete every entry (server shutdown). *)
