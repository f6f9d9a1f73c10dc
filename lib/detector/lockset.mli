(** Lock-sets: the candidate sets C(v) of the Eraser algorithm.

    Hash-consed: every distinct set is interned once into a global
    table and carries a small integer {!id}; {!equal} is physical
    equality and {!inter} is memoised in a pair-of-ids-keyed cache, so
    the detector hot path costs a hash probe instead of an array merge.

    [top] is the initial "set of all locks"; intersection with it
    yields the other operand, so the universe is never materialised. *)

type t

val top : t
val empty : t
val of_list : int list -> t

val id : t -> int
(** The interned set's unique small-integer id ([top] is 0, [empty]
    is 1); equal ids iff equal sets. *)

val is_empty : t -> bool
(** [top] is not empty. *)

val inter : t -> t -> t
(** Memoised; [inter a a == a] and results are interned, so repeated
    steady-state intersections allocate nothing. *)

val union : t -> t -> t
val add : int -> t -> t
val remove : int -> t -> t

val mem : int -> t -> bool
val equal : t -> t -> bool
(** Physical equality — sound because of interning. *)

val cardinal : t -> int
val to_list : t -> int list option
(** [None] for [Top]. *)

val pp : name_of:(int -> string) -> Format.formatter -> t -> unit
