(** FastTrack-style epoch-based happens-before race detector.

    Detection-equivalent to {!Djit} — same races, same first-report
    behaviour, byte-identical report rendering — but the common
    non-racy access is decided by O(1) packed-epoch ({!Epoch})
    comparisons over a dense shadow array instead of vector-clock walks
    and per-read list surgery.  Reads are kept as a single epoch while
    they are totally ordered, lazily promoted to a per-thread read
    vector on the first genuinely concurrent read, and adaptively
    demoted back once a read dominates the vector again (DESIGN.md §14
    argues why both moves preserve reports). *)

type t

val create : ?first_only:bool -> ?demote_check:int -> ?on_report:(Report.t -> unit) -> unit -> t
(** [first_only] (default [true]) stops checking a location after its
    first report.  [demote_check] (default 32) attempts read-shared →
    epoch demotion every [demote_check]-th access to a shared cell
    (power of two; 0 = never, i.e. classic FastTrack).
    Report-preserving either way. *)

val gate : unit -> t
(** The {!Hybrid} gate: keeps every access's epochs, never retires a
    cell (as [first_only = false]) and answers {!unordered_now} as a
    reporting instance does, but builds no report, so its collector
    stays empty. *)

val tool : t -> Raceguard_vm.Tool.t

val on_event : t -> Raceguard_vm.Tool.ctx -> Raceguard_vm.Event.t -> unit
(** Feed one event directly (composition / offline replay). *)

val unordered_now : t -> tid:int -> addr:int -> write:bool -> bool
(** Composition probe: would an access by [tid] to [addr] right now be
    concurrent (unordered) with a previous conflicting access?  Pure.
    [write] makes previous reads conflict too.  Cells retired by
    [first_only] answer [false]. *)

val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
