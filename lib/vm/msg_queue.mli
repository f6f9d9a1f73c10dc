(** A bounded message queue built from a mutex and two condition
    variables, as {e application-level library code} (its internals are
    visible to the detectors — deliberately, per §4.2.3: the lock-set
    algorithm must see exactly what Helgrind saw).

    As in the instrumented build of the §5 extension, put/get emit
    [ANNOTATE_HAPPENS_BEFORE]/[_AFTER] client requests tagged with the
    transferred value, so annotation-aware detectors recognise the
    ownership transfer; the requests are no-ops for the others. *)

type t

val create : name:string -> capacity:int -> unit -> t
(** Allocates the ring storage in VM memory; call from inside a
    simulated thread.  [capacity] must be positive. *)

val put : t -> int -> unit
(** Enqueue a value (usually the address of a message struct); blocks
    while the queue is full. *)

val get : t -> int
(** Dequeue; blocks while the queue is empty.  FIFO. *)

val length : t -> int
(** Current element count (takes the queue's lock). *)
