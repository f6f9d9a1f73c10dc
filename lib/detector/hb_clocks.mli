(** Shared happens-before clock maintenance for the vector-clock-based
    detectors ({!Djit}, {!Fasttrack}, {!Racetrack}): one clock per
    thread, advanced and joined along create/join, lock
    release→acquire, condition-variable signal→wait, semaphore
    post→wait and HAPPENS_BEFORE→HAPPENS_AFTER annotation edges. *)

type t

val create : unit -> t

val on_event : t -> Raceguard_vm.Event.t -> unit
(** Absorb one event's effect on the clocks (memory events are
    ignored).  Call before consulting the queries below for the same
    event's access. *)

val thread_vc : t -> int -> Vector_clock.t
(** The thread's current clock (created on first use). *)

val clock_of : t -> int -> int
(** The thread's own component — the stamp to record on a shadow
    cell. *)

val ordered_before : t -> tid:int -> clk:int -> now:int -> bool
(** Is an access stamped (tid, clk) happens-before thread [now]'s
    current state? *)
