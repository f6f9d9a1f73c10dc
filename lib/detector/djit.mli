(** DJIT-style happens-before race detector (Itzkovitz et al.) — the
    vector-clock baseline the paper discusses in §2.2.

    Reports only {e apparent} races on the observed execution: accesses
    unordered by the happens-before relation induced by create/join and
    synchronisation.  A subset of the lock-set algorithm's reports on
    the same run, with none of its locking-discipline false positives —
    and with schedule-dependent misses instead. *)

type config = {
  sync_on_cond : bool;
      (** treat condition signal→wait as ordering; §2.2 criticises
          detectors for assuming this holds on all SMP systems *)
  sync_on_sem : bool;  (** treat semaphore post→wait as ordering *)
  sync_on_annotations : bool;  (** honour HAPPENS_BEFORE/AFTER requests *)
  first_only : bool;
      (** stop checking a location after its first report ("it detects
          only the first apparent data race") *)
}

val default_config : config

type t

val create : ?config:config -> ?suppressions:Suppression.t list -> unit -> t
val tool : t -> Raceguard_vm.Tool.t

val on_event : t -> Raceguard_vm.Tool.ctx -> Raceguard_vm.Event.t -> unit
(** Feed one event directly (composition / offline replay). *)

val reports : t -> Report.t list
val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
