(** Hybrid lock-set × happens-before detection — the Multi-Race /
    O'Callahan-Choi combination surveyed in §2.2.

    A {!Helgrind} instance (HWLC+DR) performs the lock-set analysis;
    each of its candidate warnings is admitted only if a {!Fasttrack}
    gate ({!Fasttrack.gate}: every race's epochs kept, no report built)
    on the same event stream confirms the access is concurrent with a
    previous conflicting access.
    Precision up; the happens-before family's schedule-dependence is
    the price. *)

type t

val create : ?on_report:(Report.t -> unit) -> unit -> t
(** [on_report] sees every warning the gate admits, as it is found. *)

val tool : t -> Raceguard_vm.Tool.t
val location_count : t -> int
val collector : t -> Report.collector
