(** Word-addressed simulated memory with an allocator.

    Addresses are word indices; address 0 is the null pointer and never
    allocated.  Freed blocks are recycled LIFO from size-segregated
    free lists, like a production malloc.  Every allocation is recorded
    as a {!block} carrying the allocating thread and call stack, so
    race reports can print the Valgrind-style "Address ... is N words
    inside a block of size M alloc'd by thread T" footer (Figure 9). *)

module Loc = Raceguard_util.Loc

type block = {
  base : int;
  len : int;
  alloc_tid : int;
  alloc_loc : Loc.t;
  alloc_stack : Loc.t list;
  mutable freed : bool;
}

type t

val create : unit -> t

val null : int

val get : t -> int -> int
(** Raises [Invalid_argument] outside the allocated range. *)

val set : t -> int -> int -> unit

val alloc : t -> tid:int -> loc:Loc.t -> stack:Loc.t list -> len:int -> int
(** Returns the base address of a zeroed block. *)

val free : t -> addr:int -> int
(** Returns the freed block's length.  Raises [Invalid_argument] on a
    non-base address or double free. *)

val block_of : t -> int -> block option
(** The block containing an address (live or freed). *)

val live_words : t -> int
val total_allocs : t -> int
val words_used : t -> int
