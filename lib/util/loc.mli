(** Source locations for simulated programs.

    Every memory access and synchronisation operation carries a
    [Loc.t] naming the pseudo source position performing it, so race
    reports print Valgrind-style call stacks. *)

type t = { file : string; func : string; line : int }

val v : string -> string -> int -> t
(** [v file func line]. *)

val unknown : t

val file : t -> string
val func : t -> string
val line : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
(** Structural, [==] tried first. *)

val hash : t -> int
(** Mixes the line and the lengths of [file] and [func]; hashes no
    string and allocates nothing.  [equal] locations hash alike. *)

val pp : Format.formatter -> t -> unit
(** Renders as ["func (file:line)"]. *)

val to_string : t -> string
