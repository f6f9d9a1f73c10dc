(** Classification of reported locations.

    Figure 5 splits every test case's reports into hardware-bus-lock
    false positives, destructor false positives, and the rest, by
    {e differencing} the three configurations; on top of that the
    ground-truth oracle ({!Raceguard_sip.Bugs}) attributes remaining
    reports to the injected real bugs. *)

module Det = Raceguard_detector

val signature_set : (Det.Report.t * int) list -> Det.Report.Sig_set.t

type split = {
  hw_lock_fp : int;  (** removed by the HWLC correction *)
  destructor_fp : int;  (** removed by the DR annotation *)
  remaining : int;  (** still reported by HWLC+DR *)
  remaining_true : int;  (** remaining & matching a known injected bug *)
  remaining_recovery : int;
      (** remaining & running through the resilience machinery
          (recovery-path traffic, not an injected bug) *)
  remaining_other : int;  (** remaining, unattributed (pool FPs etc.) *)
  total : int;  (** locations reported by the Original configuration *)
}

val split :
  original:(Det.Report.t * int) list ->
  hwlc:(Det.Report.t * int) list ->
  hwlc_dr:(Det.Report.t * int) list ->
  split

val reduction_pct : split -> float
(** Percentage of the Original population removed by HWLC+DR. *)

val bugs_found : (Det.Report.t * int) list -> Raceguard_sip.Bugs.id list
(** Which injected bugs the locations witness (sorted, deduplicated). *)
