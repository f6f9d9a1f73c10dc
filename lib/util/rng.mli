(** Deterministic pseudo-random number generator (splitmix64).

    Every source of nondeterminism in the simulator goes through an
    explicit [Rng.t] so a run is fully reproducible from its seed; we
    avoid [Stdlib.Random] because its state is global and its algorithm
    differs across OCaml releases. *)

type t

val create : seed:int -> t
val copy : t -> t

val next : t -> int
(** A non-negative pseudo-random int. *)

val int : t -> int -> int
(** [int t bound] in [\[0, bound)]; [bound] must be positive. *)

val int_in_range : t -> lo:int -> hi:int -> int
val bool : t -> bool

val chance : t -> num:int -> den:int -> bool
(** True with probability [num/den]. *)

val pick : t -> 'a array -> 'a
val shuffle_in_place : t -> 'a array -> unit

val split : t -> t
(** Derive an independent stream. *)
