(** [int list]s used as small multisets: a thread's read holds on one
    rwlock, a thread's held lock ids. *)

val remove_one : int -> int list -> int list
(** [remove_one x xs] drops the first occurrence of [x] from [xs], if any. *)
