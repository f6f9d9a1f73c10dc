(** The virtual machine engine: a deterministic cooperative scheduler.

    Simulated threads are OCaml fibers (effect handlers).  Every VM
    operation is a scheduling point: the fiber suspends, the operation
    is applied to the VM state, events are emitted to the registered
    tools, and the scheduler picks the next runnable thread according
    to the configured policy.  Given the same seed and policy, a run is
    bit-for-bit reproducible — which is what makes "rerun the test
    suite after fixing a problem" (§4 of the paper) meaningful.

    The engine also performs runtime deadlock detection: when no thread
    is runnable or sleeping but some are blocked, it reconstructs the
    waits-for graph and reports the cycle (the paper's application
    detected deadlocks with lock timeouts; the race checker "also does
    dead-lock detection, [so] application level detection is not
    needed", §3.3).  The same analysis stops a hang that sleeping
    daemons keep alive: main waiting on a chain no live thread can
    wake (see [check_hang]). *)

module Loc = Raceguard_util.Loc
module Rng = Raceguard_util.Rng
module Growvec = Raceguard_util.Growvec
module Int_list = Raceguard_util.Int_list
module Metrics = Raceguard_obs.Metrics
module Trace = Raceguard_obs.Trace
module Injector = Raceguard_faults.Injector
open Eff

(* Process-global instruments; per-run deltas come from snapshot/diff. *)
let m_events = Metrics.counter "vm.events_emitted"
let m_ops = Metrics.counter "vm.ops_executed"
let m_switches = Metrics.counter "vm.scheduler_switches"
let m_threads = Metrics.counter "vm.threads_created"
let m_allocs = Metrics.counter "vm.memory_allocs"
let m_deadlocks = Metrics.counter "vm.deadlocks"
let h_thread_ops = Metrics.histogram "vm.ops_per_thread"

(* ------------------------------------------------------------------ *)
(* Scheduling policies                                                 *)
(* ------------------------------------------------------------------ *)

type policy =
  | Round_robin  (** strict FIFO over ready threads *)
  | Random_seeded  (** uniformly random among ready threads (uses seed) *)
  | Scripted of int array
      (** replay a decision script: the k-th scheduling decision picks
          ready thread [script.(k) mod n]; past the end of the script
          decisions default to 0 (FIFO).  The backbone of systematic
          schedule exploration ({!Explore}). *)

let pp_policy ppf = function
  | Round_robin -> Fmt.string ppf "round-robin"
  | Random_seeded -> Fmt.string ppf "random"
  | Scripted s -> Fmt.pf ppf "scripted[%d]" (Array.length s)

type config = {
  seed : int;
  policy : policy;
  reuse_memory : bool;
  max_ops : int;  (** safety valve against runaway simulations *)
  tracer : Trace.t option;
      (** when set, every emitted event is offered to this sampling
          ring tracer (Chrome trace_event export); [None] costs one
          comparison per event *)
  faults : Injector.t option;
      (** fault-injection decision engine: delayed thread starts and
          slow mutex acquisitions are drawn from its dedicated streams
          (never from the scheduler's rng); [None] costs one comparison
          per spawn / free-mutex lock *)
}

let default_config =
  {
    seed = 1;
    policy = Random_seeded;
    reuse_memory = true;
    max_ops = 50_000_000;
    tracer = None;
    faults = None;
  }

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

type wake =
  | No_wake
  | Wake : ('a, unit) Effect.Deep.continuation * (unit -> 'a) -> wake
  | Wake_v : ('a, unit) Effect.Deep.continuation * 'a -> wake
      (** plain-value resume: the common case, no thunk allocation *)

type block_reason =
  | On_mutex of int
  | On_rwlock of int * mode
  | On_cond of int * int  (** cv, mutex to reacquire *)
  | On_sem of int
  | On_join of int
  | On_sleep of int  (** absolute wake time *)

type status =
  | Fresh of (unit -> unit)
  | Ready
  | Running
  | Blocked of block_reason
  | Done

type thread = {
  tid : int;
  name : string;
  parent : int option;
  mutable status : status;
  mutable wake : wake;
  mutable frames : Loc.t list;
  mutable failure : exn option;
  mutable join_waiters : int list;
  mutable ops : int;  (** operations executed by this thread *)
  mutable mark : int;  (** [t.walk] of the last hang walk that reached this thread *)
}

(* ------------------------------------------------------------------ *)
(* Synchronisation objects                                             *)
(* ------------------------------------------------------------------ *)

type mutex_obj = {
  m_id : int;
  m_name : string;
  mutable m_owner : int option;
  m_waiters : int Queue.t;
}

type rwlock_obj = {
  rw_id : int;
  rw_name : string;
  mutable rw_writer : int option;
  mutable rw_readers : int list;
  rw_waiters : (int * mode) Queue.t;
}

type cond_obj = {
  cv_id : int;
  cv_name : string;
  cv_waiters : (int * int) Queue.t;  (** waiters carry the mutex they must reacquire *)
  mutable cv_signallers : int list;  (** every thread that ever signalled or broadcast it *)
}

type sem_obj = {
  sem_id : int;
  sem_name : string;
  mutable sem_count : int;
  sem_waiters : int Queue.t;
  mutable sem_posters : int list;  (** every thread that ever posted it *)
}

(* ------------------------------------------------------------------ *)
(* Deadlock / run outcome                                              *)
(* ------------------------------------------------------------------ *)

type stop = Clean | Deadlock | Hang | Op_budget

let stop_name = function
  | Clean -> "clean"
  | Deadlock -> "deadlock"
  | Hang -> "hang"
  | Op_budget -> "op-budget"

type deadlock = {
  dl_stop : stop;  (** [Deadlock], [Hang] or [Op_budget] *)
  dl_cycle : (int * string) list;  (** (tid, what it waits for) *)
  dl_stuck : (int * string) list;  (** (tid, what it is doing), for the other live threads *)
}

let pp_deadlock ppf d =
  if d.dl_cycle <> [] then begin
    Fmt.pf ppf "DEADLOCK: cyclic wait among %d thread(s):@\n" (List.length d.dl_cycle);
    List.iter (fun (tid, what) -> Fmt.pf ppf "  thread %d waits for %s@\n" tid what) d.dl_cycle
  end;
  if d.dl_stuck <> [] then begin
    Fmt.pf ppf "STUCK: %d thread(s):@\n" (List.length d.dl_stuck);
    List.iter (fun (tid, what) -> Fmt.pf ppf "  thread %d %s@\n" tid what) d.dl_stuck
  end

type run_stats = {
  ops_executed : int;
  scheduler_switches : int;
  threads_created : int;
  final_clock : int;
  memory_allocs : int;
  memory_live_words : int;
}

type outcome = {
  deadlock : deadlock option;
  failures : (int * string * exn) list;  (** threads that raised *)
  stats : run_stats;
}

let stop_of o = match o.deadlock with None -> Clean | Some d -> d.dl_stop

exception Misuse of string
(** raised inside a simulated thread on API misuse (unlocking a mutex
    one does not hold, double free, ...) *)

(* ------------------------------------------------------------------ *)
(* The VM                                                              *)
(* ------------------------------------------------------------------ *)

(* How far [check_hang] has got with main's wait chain. *)
type hang_watch =
  | Unknown  (** main is not known to be orphaned *)
  | Until of int
      (** main has been orphaned since a check whose sleepers all wake
          by this time *)
  | Woken
      (** main has stayed orphaned until every one of those sleepers was
          woken; the next check decides *)

type t = {
  config : config;
  rng : Rng.t;
  memory : Memory.t;
  threads : thread Growvec.t;
  mutexes : mutex_obj Growvec.t;
  rwlocks : rwlock_obj Growvec.t;
  conds : cond_obj Growvec.t;
  sems : sem_obj Growvec.t;
  mutable ready : int array;  (** first [ready_len] entries: ready tids, FIFO *)
  mutable ready_len : int;
  mutable current : int;
  mutable clock : int;
  mutable ops : int;
  mutable events : int;  (** published to [vm.events_emitted] at the end of {!run} *)
  mutable switches : int;
  mutable tools : Tool.t list;
  mutable benign_ranges : (int * int) list;
  mutable decisions : (int * int) list;
      (** reverse log of (chosen index, arity) for decision points with
          arity > 1 — the branching structure {!Explore} enumerates.
          Only kept under [Scripted] policy (its sole consumer), so the
          common policies do not allocate per scheduling step *)
  mutable decision_count : int;
  mutable cached_ctx : Tool.ctx option;
      (** the tool ctx is pure closures over [t]; built once so [emit]
          does not allocate per event *)
  mutable delayed_fresh : (int * int) list;
      (** (tid, wake_at): spawned threads whose first run a spawn-delay
          fault postponed; they stay [Fresh] and enter the ready queue
          when the clock reaches [wake_at] *)
  mutable walk : int;  (** number of hang walks so far; stamps [thread.mark] *)
  mutable hang : hang_watch;
  mutable next_wake : int;  (** set by [wake_due_sleepers]: the earliest wake time to come *)
}

let dummy_thread =
  {
    tid = -1;
    name = "<dummy>";
    parent = None;
    status = Done;
    wake = No_wake;
    frames = [];
    failure = None;
    join_waiters = [];
    ops = 0;
    mark = 0;
  }

let create ?(config = default_config) () =
  {
    config;
    rng = Rng.create ~seed:config.seed;
    memory = Memory.create ~reuse:config.reuse_memory ();
    threads = Growvec.create ~dummy:dummy_thread;
    mutexes =
      Growvec.create ~dummy:{ m_id = -1; m_name = ""; m_owner = None; m_waiters = Queue.create () };
    rwlocks =
      Growvec.create
        ~dummy:{ rw_id = -1; rw_name = ""; rw_writer = None; rw_readers = []; rw_waiters = Queue.create () };
    conds = Growvec.create ~dummy:{ cv_id = -1; cv_name = ""; cv_waiters = Queue.create (); cv_signallers = [] };
    sems =
      Growvec.create
        ~dummy:{ sem_id = -1; sem_name = ""; sem_count = 0; sem_waiters = Queue.create (); sem_posters = [] };
    ready = [||];
    ready_len = 0;
    decision_count = 0;
    current = -1;
    clock = 0;
    ops = 0;
    events = 0;
    switches = 0;
    tools = [];
    benign_ranges = [];
    decisions = [];
    cached_ctx = None;
    delayed_fresh = [];
    walk = 0;
    hang = Unknown;
    next_wake = max_int;
  }

let add_tool t tool = t.tools <- t.tools @ [ tool ]

(** Chronological log of nontrivial scheduling decisions as
    (chosen index, arity) pairs; meaningful after {!run}. *)
let decision_log t = List.rev t.decisions

let thread t tid = Growvec.get t.threads tid
let memory t = t.memory

let tool_ctx t : Tool.ctx =
  match t.cached_ctx with
  | Some ctx -> ctx
  | None ->
      let ctx : Tool.ctx =
        {
          stack_of = (fun tid -> (thread t tid).frames);
          thread_name = (fun tid -> (thread t tid).name);
          block_of = (fun addr -> Memory.block_of t.memory addr);
          clock = (fun () -> t.clock);
        }
      in
      t.cached_ctx <- Some ctx;
      ctx

(* A direct loop rather than [List.iter]: no closure per event. *)
let rec dispatch ctx event = function
  | [] -> ()
  | (tool : Tool.t) :: rest ->
      tool.on_event ctx event;
      dispatch ctx event rest

let emit t event =
  t.events <- t.events + 1;
  (match t.config.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr ~ts:t.clock ~tid:(Event.tid event) ~name:(Event.kind_name event) ~cat:"vm" ());
  dispatch (tool_ctx t) event t.tools

(* --- ready queue ------------------------------------------------- *)

(* A thread the last hang walk reached is leaving its wait: main's wait
   chain moved, so what the hang check has seen so far no longer holds. *)
let chain_moved t th = if th.mark = t.walk then t.hang <- Unknown

let enqueue_ready t tid =
  let th = thread t tid in
  (match th.status with
  | Fresh _ | Ready -> ()
  | Running | Blocked (On_sleep _) -> th.status <- Ready
  | Blocked _ ->
      chain_moved t th;
      th.status <- Ready
  | Done -> invalid_arg "enqueue_ready: thread is done");
  let n = Array.length t.ready in
  if t.ready_len >= n then begin
    let a = Array.make (max 16 (2 * n)) (-1) in
    Array.blit t.ready 0 a 0 n;
    t.ready <- a
  end;
  t.ready.(t.ready_len) <- tid;
  t.ready_len <- t.ready_len + 1

let ready_count t = t.ready_len

let take_ready_at t idx =
  if idx < 0 || idx >= t.ready_len then invalid_arg "take_ready_at";
  let x = t.ready.(idx) in
  Array.blit t.ready (idx + 1) t.ready idx (t.ready_len - idx - 1);
  t.ready_len <- t.ready_len - 1;
  x

(* The next thread to run, or -1 when none is ready. *)
let pick_ready t =
  let n = t.ready_len in
  if n = 0 then -1
  else begin
    let choice =
      match t.config.policy with
      | Round_robin -> 0
      | Random_seeded -> Rng.int t.rng n
      | Scripted script ->
          let k = t.decision_count in
          if k < Array.length script then script.(k) mod n else 0
    in
    if n > 1 then begin
      t.decision_count <- t.decision_count + 1;
      match t.config.policy with
      | Scripted _ -> t.decisions <- (choice, n) :: t.decisions
      | Round_robin | Random_seeded -> ()
    end;
    take_ready_at t choice
  end

(* --- waking helpers ---------------------------------------------- *)

let resume_with (th : thread) (v : unit -> 'a) (k : ('a, unit) Effect.Deep.continuation) =
  th.wake <- Wake (k, v)

let resume_value (th : thread) (v : 'a) (k : ('a, unit) Effect.Deep.continuation) =
  th.wake <- Wake_v (k, v)

(* Grant a mutex to a waiting thread and make it runnable.  The
   acquire event is emitted at grant time: that is the moment the
   acquisition semantically happens. *)
let grant_mutex t (m : mutex_obj) tid ~loc =
  m.m_owner <- Some tid;
  emit t (Event.E_acquire { tid; lock = Event.Mutex m.m_id; mode = Write_mode; loc });
  enqueue_ready t tid

let rec rwlock_grant_waiters t (rw : rwlock_obj) ~loc =
  (* FIFO with reader batching: grant the head; if it is a reader, keep
     granting readers until a writer is at the head. *)
  if (not (Queue.is_empty rw.rw_waiters)) && rw.rw_writer = None then begin
    let tid, mode = Queue.peek rw.rw_waiters in
    match mode with
    | Write_mode ->
        if rw.rw_readers = [] then begin
          ignore (Queue.pop rw.rw_waiters);
          rw.rw_writer <- Some tid;
          emit t (Event.E_acquire { tid; lock = Event.Rwlock rw.rw_id; mode = Write_mode; loc });
          enqueue_ready t tid
        end
    | Read_mode ->
        ignore (Queue.pop rw.rw_waiters);
        rw.rw_readers <- tid :: rw.rw_readers;
        emit t (Event.E_acquire { tid; lock = Event.Rwlock rw.rw_id; mode = Read_mode; loc });
        enqueue_ready t tid;
        rwlock_grant_waiters t rw ~loc
  end

(* Full mutex unlock path shared by Mutex_unlock and Cond_wait. *)
let do_mutex_unlock t th (m : mutex_obj) ~loc =
  if m.m_owner <> Some th.tid then
    raise (Misuse (Fmt.str "thread %d unlocks mutex %S it does not hold" th.tid m.m_name));
  m.m_owner <- None;
  emit t (Event.E_release { tid = th.tid; lock = Event.Mutex m.m_id; loc });
  if not (Queue.is_empty m.m_waiters) then begin
    let w = Queue.pop m.m_waiters in
    grant_mutex t m w ~loc
  end

(* --- deadlock detection ------------------------------------------ *)

let describe_wait t = function
  | On_mutex m ->
      let mu = Growvec.get t.mutexes m in
      Fmt.str "mutex %S (held by %s)" mu.m_name
        (match mu.m_owner with Some o -> Fmt.str "thread %d" o | None -> "nobody")
  | On_rwlock (rw, mode) ->
      let r = Growvec.get t.rwlocks rw in
      Fmt.str "rwlock %S in %a mode (writer=%s, readers=%d)" r.rw_name Eff.pp_mode mode
        (match r.rw_writer with Some o -> Fmt.str "t%d" o | None -> "none")
        (List.length r.rw_readers)
  | On_cond (cv, _) -> Fmt.str "condition %S (no signal pending)" (Growvec.get t.conds cv).cv_name
  | On_sem s -> Fmt.str "semaphore %S" (Growvec.get t.sems s).sem_name
  | On_join tid -> Fmt.str "termination of thread %d" tid
  | On_sleep until -> Fmt.str "sleep until %d" until

(* waits-for edges: tid -> tid that could wake it (single blocking
   owner for mutex/rwlock-writer/join, or the one thread holding every
   read hold; none for cond/sem). *)
let waiting_on_thread t reason =
  match reason with
  | On_mutex m -> (Growvec.get t.mutexes m).m_owner
  | On_rwlock (rw, _) -> (
      let r = Growvec.get t.rwlocks rw in
      match r.rw_writer with
      | Some w -> Some w
      | None -> (
          match r.rw_readers with
          | x :: rest when List.for_all (Int.equal x) rest -> Some x
          | _ -> None))
  | On_join tid -> Some tid
  | On_cond _ | On_sem _ | On_sleep _ -> None

let detect_deadlock t =
  let blocked = ref [] in
  Growvec.iter
    (fun th -> match th.status with Blocked r -> blocked := (th, r) :: !blocked | _ -> ())
    t.threads;
  match !blocked with
  | [] -> None
  | blocked ->
      (* find a cycle in the waits-for graph *)
      let edge tid =
        match (thread t tid).status with
        | Blocked r -> waiting_on_thread t r
        | _ -> None
      in
      let in_cycle = Hashtbl.create 8 in
      List.iter
        (fun (th, _) ->
          (* follow edges from th; if we come back to a visited node on
             this walk, everything from there on is a cycle *)
          let rec walk seen tid =
            if List.mem tid seen then begin
              let rec mark = function
                | [] -> ()
                | x :: rest ->
                    if x = tid then List.iter (fun y -> Hashtbl.replace in_cycle y ()) (tid :: rest)
                    else mark rest
              in
              mark (List.rev seen)
            end
            else match edge tid with None -> () | Some next -> walk (tid :: seen) next
          in
          walk [] th.tid)
        blocked;
      let cycle, stuck =
        List.partition (fun (th, _) -> Hashtbl.mem in_cycle th.tid) blocked
      in
      let describe (th, r) = (th.tid, describe_wait t r) in
      let waits (th, r) = (th.tid, "waits for " ^ describe_wait t r) in
      Some { dl_stop = Deadlock; dl_cycle = List.map describe cycle; dl_stuck = List.map waits stuck }

(* --- hang detection ------------------------------------------------ *)

(* The threads whose progress could make a thread blocked for [reason]
   runnable again: a lock's holder(s), a join's target, and every thread
   that ever signalled the condition variable or posted the semaphore. *)
let wakers t = function
  | On_mutex m -> ( match (Growvec.get t.mutexes m).m_owner with Some o -> [ o ] | None -> [])
  | On_rwlock (rw, _) -> (
      let r = Growvec.get t.rwlocks rw in
      match r.rw_writer with Some w -> [ w ] | None -> r.rw_readers)
  | On_join tid -> [ tid ]
  | On_cond (cv, _) -> (Growvec.get t.conds cv).cv_signallers
  | On_sem s -> (Growvec.get t.sems s).sem_posters
  | On_sleep _ -> []

let is_done t tid = match (thread t tid).status with Done -> true | _ -> false

(* Main is orphaned when its wait chain can no longer move.  A mutex or
   rwlock leads to its holder(s) and a join to its target; every thread
   reached that way must be done or itself orphaned, and a wait cycle
   counts as orphaned.  A condition variable or semaphore wait is
   orphaned only when some thread has signalled or posted that object
   and every such thread is done: an object nobody else ever woke never
   orphans its waiter.  Stamps each thread it reaches with a fresh
   [t.walk], which is how [chain_moved] knows the chain. *)
let orphaned t =
  t.walk <- t.walk + 1;
  let rec go = function
    | [] -> true
    | tid :: rest -> (
        let th = thread t tid in
        if th.mark = t.walk then go rest
        else begin
          th.mark <- t.walk;
          match th.status with
          | Done -> go rest
          | Fresh _ | Ready | Running | Blocked (On_sleep _) -> false
          | Blocked ((On_cond _ | On_sem _) as r) -> (
              match wakers t r with [] -> false | ws -> List.for_all (is_done t) ws && go rest)
          | Blocked r -> go (List.rev_append (wakers t r) rest)
        end)
  in
  go [ 0 ]

exception Hung

(* Called whenever the ready queue empties while some thread sleeps,
   after the due sleepers were woken; [horizon] is the latest wake time
   of the sleepers.  When main is first found orphaned the check notes
   that horizon.  At the first check at or past it every sleeper seen
   then has been woken, so by the next check each has run; if main is
   still orphaned there, with no thread of its chain woken in between
   ([chain_moved]), no sleeper touched the chain and the run stops. *)
let check_hang t horizon =
  match (thread t 0).status with
  | Blocked (On_mutex _ | On_rwlock _ | On_cond _ | On_sem _ | On_join _) when orphaned t -> (
      match t.hang with
      | Unknown -> t.hang <- Until horizon
      | Until h -> if t.clock >= h then t.hang <- Woken
      | Woken -> raise Hung)
  | Fresh _ | Ready | Running | Blocked _ | Done -> t.hang <- Unknown

(* Every thread that has not finished, with its name, state and op
   count: the report of a run stopped as a hang or by the op budget.  On
   a hang the threads of main's chain are the blocked ones the last walk
   reached. *)
let live_threads t ~hang =
  Growvec.to_list t.threads
  |> List.filter_map (fun th ->
         let state =
           match th.status with
           | Done -> None
           | Fresh _ -> Some "has not started"
           | Ready -> Some "is ready"
           | Running -> Some "is running"
           | Blocked (On_sleep until) -> Some (Fmt.str "sleeps until %d" until)
           | Blocked r when hang && th.mark = t.walk ->
               let only verb =
                 Fmt.str " (%s only by finished threads %s)" verb
                   (String.concat ", " (List.map string_of_int (List.sort compare (wakers t r))))
               in
               let why =
                 match r with
                 | On_cond _ -> only "signalled"
                 | On_sem _ -> only "posted"
                 | On_mutex _ | On_rwlock _ | On_join _ | On_sleep _ -> ""
               in
               Some (Fmt.str "waits for %s, orphaned%s" (describe_wait t r) why)
           | Blocked r -> Some ("waits for " ^ describe_wait t r)
         in
         Option.map (fun s -> (th.tid, Fmt.str "(%s) %s (%d ops)" th.name s th.ops)) state)

(* ------------------------------------------------------------------ *)
(* Operation interpretation                                            *)
(* ------------------------------------------------------------------ *)

exception Too_many_ops

let reschedule_self t th v k =
  resume_value th v k;
  enqueue_ready t th.tid

(* Interpret one operation performed by thread [th].  Must either make
   [th] runnable again (with a wake) or leave it blocked in some wait
   queue. *)
let rec handle_op : type a. t -> thread -> a op -> (a, unit) Effect.Deep.continuation -> unit =
 fun t th op k ->
  t.ops <- t.ops + 1;
  th.ops <- th.ops + 1;
  t.clock <- t.clock + 1;
  if t.ops > t.config.max_ops then raise Too_many_ops;
  let ret (v : a) = reschedule_self t th v k in
  match op with
  | Read { addr; loc } ->
      let value = Memory.get t.memory addr in
      emit t (Event.E_read { tid = th.tid; addr; value; atomic = false; loc });
      ret value
  | Write { addr; value; loc } ->
      Memory.set t.memory addr value;
      emit t (Event.E_write { tid = th.tid; addr; value; atomic = false; loc });
      ret ()
  | Atomic_rmw { addr; f; loc } ->
      (* one LOCK-prefixed instruction: an atomic load followed by an
         atomic store, indivisible (no scheduling point in between) *)
      let old = Memory.get t.memory addr in
      let value = f old in
      Memory.set t.memory addr value;
      emit t (Event.E_read { tid = th.tid; addr; value = old; atomic = true; loc });
      emit t (Event.E_write { tid = th.tid; addr; value; atomic = true; loc });
      ret old
  | Alloc { len; loc } ->
      let addr = Memory.alloc t.memory ~tid:th.tid ~loc ~stack:th.frames ~len in
      emit t (Event.E_alloc { tid = th.tid; addr; len; loc });
      ret addr
  | Free { addr; loc } ->
      let len = Memory.free t.memory ~addr in
      emit t (Event.E_free { tid = th.tid; addr; len; loc });
      ret ()
  | Spawn { name; body; loc } ->
      let child =
        {
          tid = Growvec.length t.threads;
          name;
          parent = Some th.tid;
          status = Fresh body;
          wake = No_wake;
          frames = [ loc ];
          failure = None;
          join_waiters = [];
          ops = 0;
          mark = 0;
        }
      in
      ignore (Growvec.push t.threads child);
      emit t (Event.E_thread_start { tid = child.tid; name; parent = Some th.tid });
      emit t (Event.E_spawn { parent = th.tid; child = child.tid; loc });
      let spawn_delay =
        match t.config.faults with Some inj -> Injector.spawn_delay inj | None -> 0
      in
      if spawn_delay = 0 then enqueue_ready t child.tid
      else t.delayed_fresh <- (child.tid, t.clock + spawn_delay) :: t.delayed_fresh;
      ret child.tid
  | Join { tid; loc } ->
      if tid < 0 || tid >= Growvec.length t.threads then
        raise (Misuse (Fmt.str "join of unknown thread %d" tid));
      let target = thread t tid in
      if target.status = Done then begin
        emit t (Event.E_join { joiner = th.tid; joined = tid; loc });
        ret ()
      end
      else begin
        target.join_waiters <- (th.tid :: target.join_waiters);
        th.status <- Blocked (On_join tid);
        resume_with th (fun () -> ()) k
      end
  | Mutex_create { name; loc } ->
      let m = { m_id = Growvec.length t.mutexes; m_name = name; m_owner = None; m_waiters = Queue.create () } in
      ignore (Growvec.push t.mutexes m);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Mutex m.m_id; name; loc });
      ret m.m_id
  | Mutex_lock { m; loc } -> (
      let mu = Growvec.get t.mutexes m in
      match mu.m_owner with
      | None ->
          mu.m_owner <- Some th.tid;
          emit t (Event.E_acquire { tid = th.tid; lock = Event.Mutex m; mode = Write_mode; loc });
          let lock_delay =
            match t.config.faults with Some inj -> Injector.lock_delay inj | None -> 0
          in
          if lock_delay = 0 then ret ()
          else begin
            (* slow-acquire fault: the lock is held from this moment
               (contention builds behind it) but the owner stalls
               before proceeding *)
            resume_value th () k;
            th.status <- Blocked (On_sleep (t.clock + lock_delay))
          end
      | Some owner when owner = th.tid ->
          raise (Misuse (Fmt.str "thread %d relocks non-recursive mutex %S" th.tid mu.m_name))
      | Some _ ->
          Queue.push th.tid mu.m_waiters;
          th.status <- Blocked (On_mutex m);
          resume_with th (fun () -> ()) k)
  | Mutex_trylock { m; loc } -> (
      let mu = Growvec.get t.mutexes m in
      match mu.m_owner with
      | None ->
          mu.m_owner <- Some th.tid;
          emit t (Event.E_acquire { tid = th.tid; lock = Event.Mutex m; mode = Write_mode; loc });
          ret true
      | Some _ -> ret false)
  | Mutex_unlock { m; loc } ->
      let mu = Growvec.get t.mutexes m in
      do_mutex_unlock t th mu ~loc;
      ret ()
  | Rwlock_create { name; loc } ->
      let rw =
        { rw_id = Growvec.length t.rwlocks; rw_name = name; rw_writer = None; rw_readers = []; rw_waiters = Queue.create () }
      in
      ignore (Growvec.push t.rwlocks rw);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Rwlock rw.rw_id; name; loc });
      ret rw.rw_id
  | Rwlock_lock { rw; mode; loc } -> (
      let r = Growvec.get t.rwlocks rw in
      match mode with
      | Read_mode ->
          if r.rw_writer = None && Queue.is_empty r.rw_waiters then begin
            r.rw_readers <- th.tid :: r.rw_readers;
            emit t (Event.E_acquire { tid = th.tid; lock = Event.Rwlock rw; mode; loc });
            ret ()
          end
          else begin
            Queue.push (th.tid, mode) r.rw_waiters;
            th.status <- Blocked (On_rwlock (rw, mode));
            resume_with th (fun () -> ()) k
          end
      | Write_mode ->
          if r.rw_writer = None && r.rw_readers = [] && Queue.is_empty r.rw_waiters then begin
            r.rw_writer <- Some th.tid;
            emit t (Event.E_acquire { tid = th.tid; lock = Event.Rwlock rw; mode; loc });
            ret ()
          end
          else begin
            Queue.push (th.tid, mode) r.rw_waiters;
            th.status <- Blocked (On_rwlock (rw, mode));
            resume_with th (fun () -> ()) k
          end)
  | Rwlock_unlock { rw; loc } ->
      let r = Growvec.get t.rwlocks rw in
      (if r.rw_writer = Some th.tid then r.rw_writer <- None
       else if List.mem th.tid r.rw_readers then
         (* one hold per [rdlock]: an unlock releases one *)
         r.rw_readers <- Int_list.remove_one th.tid r.rw_readers
       else raise (Misuse (Fmt.str "thread %d unlocks rwlock %S it does not hold" th.tid r.rw_name)));
      emit t (Event.E_release { tid = th.tid; lock = Event.Rwlock rw; loc });
      rwlock_grant_waiters t r ~loc;
      ret ()
  | Cond_create { name; loc } ->
      let cv = { cv_id = Growvec.length t.conds; cv_name = name; cv_waiters = Queue.create (); cv_signallers = [] } in
      ignore (Growvec.push t.conds cv);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Cond cv.cv_id; name; loc });
      ret cv.cv_id
  | Cond_wait { cv; m; loc } ->
      let c = Growvec.get t.conds cv in
      let mu = Growvec.get t.mutexes m in
      emit t (Event.E_cond_wait_pre { tid = th.tid; cv; m; loc });
      do_mutex_unlock t th mu ~loc;
      Queue.push (th.tid, m) c.cv_waiters;
      th.status <- Blocked (On_cond (cv, m));
      resume_with th (fun () -> ()) k
  | Cond_signal { cv; loc } ->
      let c = Growvec.get t.conds cv in
      c.cv_signallers <- Int_list.add_new th.tid c.cv_signallers;
      emit t (Event.E_cond_signal { tid = th.tid; cv; broadcast = false; loc });
      (if not (Queue.is_empty c.cv_waiters) then begin
         let w, m = Queue.pop c.cv_waiters in
         wake_cond_waiter t w m ~cv ~loc
       end);
      ret ()
  | Cond_broadcast { cv; loc } ->
      let c = Growvec.get t.conds cv in
      c.cv_signallers <- Int_list.add_new th.tid c.cv_signallers;
      emit t (Event.E_cond_signal { tid = th.tid; cv; broadcast = true; loc });
      while not (Queue.is_empty c.cv_waiters) do
        let w, m = Queue.pop c.cv_waiters in
        wake_cond_waiter t w m ~cv ~loc
      done;
      ret ()
  | Sem_create { name; init; loc } ->
      let s =
        { sem_id = Growvec.length t.sems; sem_name = name; sem_count = init; sem_waiters = Queue.create (); sem_posters = [] }
      in
      ignore (Growvec.push t.sems s);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Sem s.sem_id; name; loc });
      ret s.sem_id
  | Sem_wait { s; loc } ->
      let sem = Growvec.get t.sems s in
      if sem.sem_count > 0 then begin
        sem.sem_count <- sem.sem_count - 1;
        emit t (Event.E_sem_wait_post { tid = th.tid; sem = s; loc });
        ret ()
      end
      else begin
        Queue.push th.tid sem.sem_waiters;
        th.status <- Blocked (On_sem s);
        resume_with th (fun () -> ()) k
      end
  | Sem_post { s; loc } ->
      let sem = Growvec.get t.sems s in
      sem.sem_posters <- Int_list.add_new th.tid sem.sem_posters;
      emit t (Event.E_sem_post { tid = th.tid; sem = s; loc });
      (if Queue.is_empty sem.sem_waiters then sem.sem_count <- sem.sem_count + 1
       else begin
         let w = Queue.pop sem.sem_waiters in
         emit t (Event.E_sem_wait_post { tid = w; sem = s; loc });
         enqueue_ready t w
       end);
      ret ()
  | Client req ->
      let loc = match th.frames with [] -> Loc.unknown | l :: _ -> l in
      (match req with
      | Benign_race { addr; len } -> t.benign_ranges <- (addr, len) :: t.benign_ranges
      | Destruct _ | Happens_before _ | Happens_after _ -> ());
      emit t (Event.E_client { tid = th.tid; req; loc });
      ret ()
  | Yield -> ret ()
  | Sleep n ->
      th.status <- Blocked (On_sleep (t.clock + max 1 n));
      resume_with th (fun () -> ()) k
  | Now -> ret t.clock
  | Self -> ret th.tid
  | Push_frame loc ->
      th.frames <- loc :: th.frames;
      ret ()
  | Pop_frame ->
      (match th.frames with [] -> () | _ :: rest -> th.frames <- rest);
      ret ()
  | Random_int bound -> ret (Rng.int t.rng bound)

and wake_cond_waiter t w m ~cv ~loc =
  (* a signalled waiter must reacquire its mutex before returning *)
  let mu = Growvec.get t.mutexes m in
  let wth = thread t w in
  (match mu.m_owner with
  | None ->
      mu.m_owner <- Some w;
      emit t (Event.E_acquire { tid = w; lock = Event.Mutex m; mode = Write_mode; loc });
      emit t (Event.E_cond_wait_post { tid = w; cv; m; loc });
      enqueue_ready t w
  | Some _ ->
      (* park on the mutex; when granted, the wait_post event must
         still be emitted — we wrap the thread's wake closure. *)
      chain_moved t wth;
      wth.status <- Blocked (On_mutex m);
      (match wth.wake with
      | Wake (k, v) ->
          wth.wake <-
            Wake
              ( k,
                fun () ->
                  emit t (Event.E_cond_wait_post { tid = w; cv; m; loc });
                  v () )
      | Wake_v (k, v) ->
          wth.wake <-
            Wake
              ( k,
                fun () ->
                  emit t (Event.E_cond_wait_post { tid = w; cv; m; loc });
                  v )
      | No_wake -> ());
      Queue.push w mu.m_waiters)

(* ------------------------------------------------------------------ *)
(* The scheduler                                                       *)
(* ------------------------------------------------------------------ *)

let thread_finished t th =
  th.status <- Done;
  emit t (Event.E_thread_exit { tid = th.tid });
  List.iter
    (fun w ->
      emit t (Event.E_join { joiner = w; joined = th.tid; loc = Loc.unknown });
      enqueue_ready t w)
    th.join_waiters;
  th.join_waiters <- []

(* One pass over the sleepers (and the threads a spawn delay holds
   back): make every due one ready, leave the earliest wake time still
   to come in [t.next_wake], and return the latest wake time seen, or -1
   when nothing sleeps. *)
let wake_due_sleepers t =
  t.next_wake <- max_int;
  let see horizon until =
    if until > t.clock && until < t.next_wake then t.next_wake <- until;
    max horizon until
  in
  let horizon =
    match t.delayed_fresh with
    | [] -> -1
    | delayed ->
        let due, still = List.partition (fun (_, until) -> until <= t.clock) delayed in
        if due <> [] then begin
          t.delayed_fresh <- still;
          List.iter (fun (tid, _) -> enqueue_ready t tid) (List.sort compare due)
        end;
        List.fold_left (fun horizon (_, until) -> see horizon until) (-1) delayed
  in
  Growvec.fold
    (fun horizon th ->
      match th.status with
      | Blocked (On_sleep until) ->
          if until <= t.clock then enqueue_ready t th.tid;
          see horizon until
      | _ -> horizon)
    horizon t.threads

(* The scheduler is a trampoline.  [schedule] picks the next thread and
   resumes it; that thread runs until its next operation, whose handler
   applies the operation and calls [schedule] again; a finishing thread's
   [retc]/[exnc] do the same.  Every one of these calls — [schedule] from
   a handler, and [continue]/[match_with] from [run_thread] — is a tail
   call (OCaml compiles a tail [%resume]/[%runstack] as a jump), so the
   carrier stack stays flat however many operations run, and [schedule]
   returns to {!run} only when no thread is runnable or sleeping.  None
   of them may sit inside a [try]: test/stack_flat.ml runs a million
   operations on a 64 KiB stack to hold this. *)
let rec schedule t =
  let tid = pick_ready t in
  if tid >= 0 then run_thread t (thread t tid)
  else begin
    let horizon = wake_due_sleepers t in
    if horizon >= 0 then check_hang t horizon;
    if ready_count t > 0 then schedule t
    else if horizon >= 0 then begin
      (* everyone sleeps: jump the clock to the first wake-up *)
      t.clock <- t.next_wake;
      ignore (wake_due_sleepers t);
      schedule t
    end
  end

and run_thread t th =
  t.current <- th.tid;
  t.switches <- t.switches + 1;
  match th.status with
  | Fresh body ->
      th.status <- Running;
      Effect.Deep.match_with body () (handler t th)
  | Ready -> (
      th.status <- Running;
      match th.wake with
      | Wake (k, v) ->
          th.wake <- No_wake;
          Effect.Deep.continue k (v ())
      | Wake_v (k, v) ->
          th.wake <- No_wake;
          Effect.Deep.continue k v
      | No_wake -> invalid_arg "run_thread: ready thread without wake")
  | Running | Blocked _ | Done -> invalid_arg "run_thread: thread not runnable"

and handler t th : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        thread_finished t th;
        schedule t);
    exnc =
      (fun e ->
        th.failure <- Some e;
        thread_finished t th;
        schedule t);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Do op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                (* API misuse (bad unlock, double free, out-of-bounds
                   access, ...) is the calling thread's error: deliver
                   it at the perform point so the thread fails and the
                   VM keeps running.  Engine-level conditions
                   (Too_many_ops, and Hung from [schedule]) still abort
                   the run.  [schedule] is in the value branch, outside
                   the trap. *)
                match handle_op t th op k with
                | () -> schedule t
                | exception ((Misuse _ | Invalid_argument _) as e) ->
                    Effect.Deep.discontinue k e)
        | _ -> None);
  }

(** Run [main] as thread 0 until all threads finish, a deadlock or hang
    is detected, or the op budget is exhausted. *)
let run t main =
  let main_thread =
    {
      tid = 0;
      name = "main";
      parent = None;
      status = Fresh main;
      wake = No_wake;
      frames = [ Loc.v "<vm>" "main" 0 ];
      failure = None;
      join_waiters = [];
      ops = 0;
      mark = 0;
    }
  in
  ignore (Growvec.push t.threads main_thread);
  emit t (Event.E_thread_start { tid = 0; name = "main"; parent = None });
  enqueue_ready t 0;
  let deadlock =
    try
      schedule t;
      detect_deadlock t
    with
    | Hung -> Some { dl_stop = Hang; dl_cycle = []; dl_stuck = live_threads t ~hang:true }
    | Too_many_ops -> Some { dl_stop = Op_budget; dl_cycle = []; dl_stuck = live_threads t ~hang:false }
  in
  let failures =
    Growvec.fold
      (fun acc th -> match th.failure with Some e -> (th.tid, th.name, e) :: acc | None -> acc)
      [] t.threads
  in
  Metrics.add m_events t.events;
  Metrics.add m_ops t.ops;
  Metrics.add m_switches t.switches;
  Metrics.add m_threads (Growvec.length t.threads);
  Metrics.add m_allocs (Memory.total_allocs t.memory);
  if deadlock <> None then Metrics.incr m_deadlocks;
  Growvec.iter (fun (th : thread) -> Metrics.observe h_thread_ops th.ops) t.threads;
  {
    deadlock;
    failures = List.rev failures;
    stats =
      {
        ops_executed = t.ops;
        scheduler_switches = t.switches;
        threads_created = Growvec.length t.threads;
        final_clock = t.clock;
        memory_allocs = Memory.total_allocs t.memory;
        memory_live_words = Memory.live_words t.memory;
      };
  }
