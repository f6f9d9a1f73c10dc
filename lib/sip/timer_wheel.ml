(** Retransmission / housekeeping timers.

    Workers schedule [TimerTask] objects into a locked list; a timer
    thread fires due tasks and deletes them — yet another shared-object
    delete site (the task was created by a worker, is deleted by the
    timer thread), plus a periodic housekeeping callback used for
    registrar expiry.

    With a [resend] callback the wheel implements RFC-3261-style
    response retransmission: a fired [RetransmitTimer] asks the server
    to resend the transaction's final response and, while the callback
    keeps returning [true] and the attempt budget lasts, reschedules
    itself with exponentially backed-off delays ({!Backoff}).  The
    receiving side cancels the timer with {!cancel} when the ACK
    arrives — the classic cancellation-racing-with-reply window. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Metrics = Raceguard_obs.Metrics

let lc func line = Loc.v "timer_wheel.cpp" ("TimerWheel::" ^ func) line

let m_resend = Metrics.counter "sip.resilience.timer_resend"
let m_cancelled = Metrics.counter "sip.resilience.timer_cancelled"
let m_oom_recovered = Metrics.counter "sip.resilience.timer_alloc_failure_recovered"

let max_attempts = 5

(* class TimerTask { int due; int kind; }
   class RetransmitTimer : TimerTask { int attempts; int txn_key; } *)
let timer_task_class =
  Obj_model.define ~name:"TimerTask" ~fields:[ "due"; "kind" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"timer_wheel.cpp" ~base_line:19 cls obj ~strings:[]
        ~ints:[ "due"; "kind" ])
    ()

let retransmit_timer_class =
  Obj_model.define ~parent:timer_task_class ~name:"RetransmitTimer"
    ~fields:[ "attempts"; "txn_key" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"timer_wheel.cpp" ~base_line:27 cls obj ~strings:[]
        ~ints:[ "attempts"; "txn_key" ])
    ()

type t = {
  mutex : Api.Mutex.t;
  pending : Raceguard_cxxsim.Containers.Vector.t;  (** task addresses *)
  stop_flag : int;
  housekeeping : unit -> unit;
  resend : (txn_key:int -> attempt:int -> bool) option;
      (** [resend ~txn_key ~attempt] retransmits the transaction's
          final response; [true] = keep the timer armed *)
  recover_alloc_failure : bool;
      (** timer thread swallows injected allocation failures instead of
          dying (the resilient server's behaviour) *)
  mutable thread : int;
  mutable fired : int;
}

let create ~alloc ?resend ?(recover_alloc_failure = false) ~housekeeping () =
  {
    mutex = Api.Mutex.create ~loc:(lc "TimerWheel" 40) "timer.mutex";
    pending = Raceguard_cxxsim.Containers.Vector.create alloc;
    stop_flag = Api.alloc ~loc:(lc "TimerWheel" 42) 1;
    housekeeping;
    resend;
    recover_alloc_failure;
    thread = -1;
    fired = 0;
  }

let schedule_attempt t ~txn_key ~delay ~attempt =
  let loc = lc "schedule" 52 in
  Api.with_frame loc @@ fun () ->
  let task =
    Obj_model.new_ ~loc retransmit_timer_class ~init:(fun obj ->
        let cls = retransmit_timer_class in
        Obj_model.set ~loc cls obj "due" (Api.now () + delay);
        Obj_model.set ~loc cls obj "kind" 1;
        Obj_model.set ~loc cls obj "attempts" attempt;
        Obj_model.set ~loc cls obj "txn_key" txn_key)
  in
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      Raceguard_cxxsim.Containers.Vector.push_back t.pending task)

(** Schedule a retransmission timer for a transaction. *)
let schedule_retransmit t ~txn_key ~delay = schedule_attempt t ~txn_key ~delay ~attempt:0

(** Disarm every pending timer for [txn_key] (the reply — an ACK —
    arrived).  Returns how many were cancelled.  Unlinks under the
    mutex, deletes outside it, mirroring every other delete site. *)
let cancel t ~txn_key =
  let loc = lc "cancel" 58 in
  Api.with_frame loc @@ fun () ->
  let module V = Raceguard_cxxsim.Containers.Vector in
  let victims = ref [] in
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      let n = V.size t.pending in
      for i = 0 to n - 1 do
        let task = V.get t.pending i in
        if task <> 0 && Obj_model.get ~loc retransmit_timer_class task "txn_key" = txn_key
        then begin
          victims := task :: !victims;
          V.set t.pending i 0
        end
      done);
  List.iter
    (fun task ->
      Metrics.incr m_cancelled;
      Obj_model.delete_ ~loc:(lc "cancel" 64) ~annotate:true retransmit_timer_class task)
    !victims;
  List.length !victims

let fire_due t =
  let loc = lc "fireDue" 66 in
  Api.with_frame loc @@ fun () ->
  let module V = Raceguard_cxxsim.Containers.Vector in
  let now = Api.now () in
  let due = ref [] in
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      (* collect due tasks; compact the vector in place *)
      let n = V.size t.pending in
      let keep = ref [] in
      for i = 0 to n - 1 do
        let task = V.get t.pending i in
        if task <> 0 then begin
          if Obj_model.get ~loc retransmit_timer_class task "due" <= now then
            due := task :: !due
          else keep := task :: !keep
        end
      done;
      let keep = List.rev !keep in
      List.iteri (fun i task -> V.set t.pending i task) keep;
      for i = List.length keep to n - 1 do
        V.set t.pending i 0
      done);
  List.iter
    (fun task ->
      t.fired <- t.fired + 1;
      let txn_key = Obj_model.get ~loc retransmit_timer_class task "txn_key" in
      let attempts = Obj_model.get ~loc retransmit_timer_class task "attempts" in
      (* retransmit, then delete the worker-created task in the timer
         thread (the cross-thread delete site) *)
      (match t.resend with
      | None -> ()
      | Some resend ->
          let attempt = attempts + 1 in
          let keep_armed = resend ~txn_key ~attempt in
          if keep_armed then begin
            Metrics.incr m_resend;
            if attempt < max_attempts then
              schedule_attempt t ~txn_key ~attempt
                ~delay:(Backoff.delay Backoff.default ~seed:txn_key ~attempt)
          end);
      Obj_model.delete_ ~loc:(lc "fireDue" 90) ~annotate:true retransmit_timer_class task)
    !due

let run t () =
  Api.with_frame (lc "run" 94) @@ fun () ->
  let tick () =
    try
      fire_due t;
      t.housekeeping ()
    with Raceguard_faults.Injector.Out_of_memory when t.recover_alloc_failure ->
      (* injected bad_alloc inside timer bookkeeping: drop this tick's
         work and keep the timer thread alive *)
      Metrics.incr m_oom_recovered
  in
  while Api.read ~loc:(lc "run" 95) t.stop_flag = 0 do
    Api.sleep 15;
    tick ()
  done;
  tick ()

let start t = t.thread <- Api.spawn ~loc:(lc "start" 102) ~name:"timer-wheel" (run t)
let stop t = ignore (Api.atomic_rmw ~loc:(lc "stop" 103) t.stop_flag (fun _ -> 1))
let join t = if t.thread >= 0 then Api.join ~loc:(lc "join" 104) t.thread
let fired t = t.fired
