(** Dense tables indexed by small non-negative integers (word
    addresses, tids): growth by doubling and bounded range sweeps.

    Detectors keep the table as a plain [mutable field : cell array]
    and index it themselves; this module only replaces the array when
    an index falls past its end, and sweeps a range without growing
    it. *)

val grow : 'a array -> int -> floor:int -> (unit -> 'a) -> 'a array
(** [grow cells i ~floor fresh] is [cells] itself when [i] is in range.
    Otherwise it is a new array of length
    [max floor (max (2 * length cells) (i + 1))] whose first
    [length cells] slots hold [cells]'s elements (physically the same
    values) and whose other slots each hold a new [fresh ()]. *)

val iter_range : 'a array -> addr:int -> len:int -> ('a -> unit) -> unit
(** [iter_range cells ~addr ~len f] applies [f] to the slots
    [addr .. addr + len - 1] that exist, in order.  Slots past the end
    of [cells] are skipped: an untouched slot is fresh already, so an
    allocation's range re-initialisation never grows the table. *)
