(** Hybrid lock-set × happens-before detection — the Multi-Race /
    O'Callahan-Choi combination surveyed in §2.2.

    A {!Helgrind} instance (HWLC+DR) performs the lock-set analysis;
    each of its candidate warnings is admitted only if a {!Fasttrack}
    instance on the same event stream (condition-variable and
    semaphore edges on, every race kept) confirms the access is
    concurrent with a previous conflicting access.  Precision up; the
    happens-before family's schedule-dependence is the price. *)

type t

val create : ?suppressions:Suppression.t list -> unit -> t
val tool : t -> Raceguard_vm.Tool.t
val on_event : t -> Raceguard_vm.Tool.ctx -> Raceguard_vm.Event.t -> unit

val reports : t -> Report.t list
val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
