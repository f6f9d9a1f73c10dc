(** [int list]s used as small multisets and sets: a thread's read holds
    on one rwlock, a thread's held lock ids, the threads that ever
    signalled a condition variable. *)

val remove_one : int -> int list -> int list
(** [remove_one x xs] drops the first occurrence of [x] from [xs], if any. *)

val add_new : int -> int list -> int list
(** [add_new x xs] is [x :: xs], or [xs] itself when [x] is already in it. *)
