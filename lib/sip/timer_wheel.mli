(** Retransmission / housekeeping timers: workers schedule [TimerTask]
    objects into a locked list; the timer thread fires due tasks and
    deletes them (another cross-thread delete site), and runs the
    periodic housekeeping callback (registrar expiry, route refresh).

    With a [resend] callback the wheel retransmits unacknowledged final
    responses RFC-3261-style: bounded attempts with {!Backoff} delays,
    disarmed by {!cancel} when the ACK arrives. *)

val timer_task_class : Raceguard_cxxsim.Object_model.class_desc
val retransmit_timer_class : Raceguard_cxxsim.Object_model.class_desc

val max_attempts : int
(** Retransmission attempt budget per transaction. *)

type t

val create :
  alloc:Raceguard_cxxsim.Allocator.t ->
  ?resend:(txn_key:int -> attempt:int -> bool) ->
  ?recover_alloc_failure:bool ->
  housekeeping:(unit -> unit) ->
  unit ->
  t
(** [resend ~txn_key ~attempt] must retransmit the transaction's final
    response and return whether to keep the timer armed; attempts are
    rescheduled with {!Backoff.default} delays (seeded by [txn_key])
    while the budget lasts.  [recover_alloc_failure] makes the timer
    thread swallow injected allocation failures instead of dying. *)

val start : t -> unit
val schedule_retransmit : t -> txn_key:int -> delay:int -> unit

val cancel : t -> txn_key:int -> int
(** Disarm every pending timer for the transaction (its ACK arrived);
    returns how many were removed. *)

val stop : t -> unit
val join : t -> unit
val fired : t -> int
(** Tasks fired so far.  Resends and cancellations are counted only in
    the metrics registry ([sip.resilience.timer_resend] and
    [timer_cancelled]). *)
