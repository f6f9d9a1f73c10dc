(** RaceTrack-style adaptive detection — the paper's citation [16]
    (Yu, Rodeheffer & Chen, SOSP 2005).

    Per location, a happens-before-pruned {e threadset} decides whether
    the location is effectively exclusive (candidate lock-set stays at
    ⊤) or genuinely concurrent (lock-set refinement and checking run).
    Ownership transfer through any synchronisation — including the
    queue handoffs of §4.2.3 — re-privatises the location without
    annotations, at the price of the happens-before family's schedule
    dependence.  The lock-sets model the bus lock as {!Helgrind}'s
    [Rw_lock] (the paper's HWLC correction), and reads with an empty
    candidate set are reported. *)

type t

val create : ?on_report:(Report.t -> unit) -> unit -> t
val tool : t -> Raceguard_vm.Tool.t

val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
