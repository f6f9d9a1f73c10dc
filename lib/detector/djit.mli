(** DJIT-style happens-before race detector (Itzkovitz et al.) — the
    vector-clock baseline the paper discusses in §2.2.

    Reports only {e apparent} races on the observed execution: accesses
    unordered by the happens-before relation induced by create/join and
    synchronisation.  A subset of the lock-set algorithm's reports on
    the same run, with none of its locking-discipline false positives —
    and with schedule-dependent misses instead. *)

type t

val create :
  ?first_only:bool ->
  ?on_report:(Report.t -> unit) ->
  ?suppressions:Suppression.t list ->
  unit ->
  t
(** [first_only] (default [true]) stops checking a location after its
    first report ("it detects only the first apparent data race"). *)

val tool : t -> Raceguard_vm.Tool.t

val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
