(** The virtual machine engine: a deterministic cooperative scheduler.

    Simulated threads are OCaml fibers.  Every VM operation ({!Op}, the
    primitives behind {!Api}) is a plain call that runs on the calling
    thread's own fiber: it counts the operation, ticks the clock,
    applies it to the VM state, emits its events to the registered
    tools and makes a scheduling decision by the configured policy.
    When the decision picks the calling thread again the call simply
    returns; the fiber suspends (one effect) only to switch to another
    thread or when the operation blocks.  Given the same seed and
    policy, a run is bit-for-bit reproducible — which is what makes
    "rerun the test suite after fixing a problem" (§4 of the paper)
    meaningful.

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
module Injector = Raceguard_faults.Injector
open Eff

(* Process-global instruments; per-run deltas come from snapshot/diff. *)
let m_events = Metrics.counter "vm.events_emitted"
let m_ops = Metrics.counter "vm.ops_executed"
let m_switches = Metrics.counter "vm.scheduler_switches" (* decisions, not fiber switches *)
let m_threads = Metrics.counter "vm.threads_created"
let m_allocs = Metrics.counter "vm.memory_allocs"
let m_deadlocks = Metrics.counter "vm.deadlocks"

(* ------------------------------------------------------------------ *)
(* Scheduling policies                                                 *)
(* ------------------------------------------------------------------ *)

type policy = Round_robin | Random_seeded | Scripted of int array

type config = {
  seed : int;
  policy : policy;
  max_ops : int;
  faults : Injector.t option;
}

let default_config =
  {
    seed = 1;
    policy = Random_seeded;
    max_ops = 50_000_000;
    faults = None;
  }

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

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
  mutable k : (unit, unit) Effect.Deep.continuation option;  (** where a suspended thread resumes *)
  mutable signal_loc : Loc.t option;
      (** the signaller's location, while a signalled waiter is parked on
          its busy mutex: it emits its [E_cond_wait_post] on resuming *)
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
  threads_created : int;
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
  mutable cur : thread;  (** the running thread *)
  mutable next : int;  (** the thread a [Suspend] hands over to; -1: [schedule] picks *)
  mutable clock : int;
  mutable ops : int;
  mutable events : int;  (** published to [vm.events_emitted] at the end of {!run} *)
  mutable switches : int;
  mutable tools : Tool.t list;
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

let new_thread tid name parent status frame =
  let frames = [ frame ] in
  { tid; name; parent; status; k = None; signal_loc = None; frames; failure = None; join_waiters = []; ops = 0; mark = 0 }

let dummy_thread = new_thread (-1) "<dummy>" None Done Loc.unknown

let create ?(config = default_config) () =
  {
    config;
    rng = Rng.create ~seed:config.seed;
    memory = Memory.create ();
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
    cur = dummy_thread;
    next = -1;
    clock = 0;
    ops = 0;
    events = 0;
    switches = 0;
    tools = [];
    decisions = [];
    cached_ctx = None;
    delayed_fresh = [];
    walk = 0;
    hang = Unknown;
    next_wake = max_int;
  }

let add_tool t tool = t.tools <- t.tools @ [ tool ]

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

(* Emit from the scheduler, outside every thread: an exception a tool
   raises there leaves {!run}. *)
let publish t event =
  t.events <- t.events + 1;
  dispatch (tool_ctx t) event t.tools

(* The two effects a VM thread performs.  [Suspend] hands the carrier
   to thread [t.next] (to [schedule] when it is -1) until the thread is
   picked again.  [Abort e] stops the run: the thread's handler raises
   [e] outside the thread, where no [try] of the thread can catch it. *)
type _ Effect.t += Suspend : unit Effect.t | Abort : exn -> 'a Effect.t

(* [emit] publishes from the running thread's fiber.  API misuse (bad
   unlock, double free, out-of-bounds access, ...) is the thread's own
   error and is raised in it, so it fails and the VM runs on; any other
   exception, from a tool or [atomic_rmw]'s function, stops the run. *)
let fail = function (Misuse _ | Invalid_argument _) as e -> raise e | e -> Effect.perform (Abort e)
let emit t event = match publish t event with () -> () | exception e -> fail e

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

(* The policy's pick among [n] ready threads, as an index into the queue. *)
let choose t n =
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
  choice

(* The next thread to run, or -1 when none is ready. *)
let pick_ready t = if t.ready_len = 0 then -1 else take_ready_at t (choose t t.ready_len)

(* --- waking helpers ---------------------------------------------- *)

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
(* Operations, on the calling thread                                   *)
(* ------------------------------------------------------------------ *)

exception Too_many_ops

(* This domain's running engine (set by {!run}) and its count of runs. *)
type slot = { mutable vm : t option; mutable runs : int }

let slot = Domain.DLS.new_key (fun () -> { vm = None; runs = 0 })

(* Start an operation of the running thread: count it and tick the
   clock.  The budget stops the run here. *)
let step () =
  match (Domain.DLS.get slot).vm with
  | None -> invalid_arg "Engine: no VM is running on this domain"
  | Some t ->
      t.ops <- t.ops + 1;
      t.cur.ops <- t.cur.ops + 1;
      t.clock <- t.clock + 1;
      if t.ops > t.config.max_ops then Effect.perform (Abort Too_many_ops);
      t

(* The scheduling decision after an operation that did not block, made
   as if the thread had re-entered the ready queue at its end.  Picked
   again, it returns at once and the queue is as it was; it suspends
   only to switch to another thread. *)
let next t =
  let choice = choose t (t.ready_len + 1) in
  if choice = t.ready_len then t.switches <- t.switches + 1
  else begin
    t.next <- take_ready_at t choice;
    enqueue_ready t t.cur.tid;
    Effect.perform Suspend
  end

(* After an operation that blocked the thread: [schedule] picks. *)
let block t =
  t.next <- -1;
  Effect.perform Suspend

(* Wake the first waiter of [c], or all of them: a woken waiter must
   reacquire its mutex before it returns.  A free mutex is granted at
   once; a held one parks the waiter on it, and the waiter emits its
   [E_cond_wait_post] when it resumes. *)
let rec wake_cond_waiters t c ~all ~loc =
  if not (Queue.is_empty c.cv_waiters) then begin
    let w, m = Queue.pop c.cv_waiters in
    let mu = Growvec.get t.mutexes m in
    (match mu.m_owner with
    | None ->
        mu.m_owner <- Some w;
        emit t (Event.E_acquire { tid = w; lock = Event.Mutex m; mode = Write_mode; loc });
        emit t (Event.E_cond_wait_post { tid = w; cv = c.cv_id; m; loc });
        enqueue_ready t w
    | Some _ ->
        let wth = thread t w in
        chain_moved t wth;
        wth.status <- Blocked (On_mutex m);
        wth.signal_loc <- Some loc;
        Queue.push w mu.m_waiters);
    if all then wake_cond_waiters t c ~all ~loc
  end

(* The tail of the four [*_create] operations. *)
let created t sync ~name ~loc =
  emit t (Event.E_sync_create { tid = t.cur.tid; sync; name; loc });
  next t

(* Each operation ends in [next] (it returns) or in [block] (the thread
   waits in some queue until a waker makes it ready). *)
module Op = struct
  let read ~loc addr =
    let t = step () in
    let value = Memory.get t.memory addr in
    emit t (Event.E_read { tid = t.cur.tid; addr; value; atomic = false; loc });
    next t;
    value

  let write ~loc addr value =
    let t = step () in
    Memory.set t.memory addr value;
    emit t (Event.E_write { tid = t.cur.tid; addr; value; atomic = false; loc });
    next t

  (* one LOCK-prefixed instruction: an atomic load followed by an atomic
     store, indivisible (no scheduling point in between) *)
  let atomic_rmw ~loc addr f =
    let t = step () in
    let old = Memory.get t.memory addr in
    let value = match f old with v -> v | exception e -> fail e in
    Memory.set t.memory addr value;
    emit t (Event.E_read { tid = t.cur.tid; addr; value = old; atomic = true; loc });
    emit t (Event.E_write { tid = t.cur.tid; addr; value; atomic = true; loc });
    next t;
    old

  let alloc ~loc len =
    let t = step () in
    let addr = Memory.alloc t.memory ~tid:t.cur.tid ~loc ~stack:t.cur.frames ~len in
    emit t (Event.E_alloc { tid = t.cur.tid; addr; len; loc });
    next t;
    addr

  let free ~loc addr =
    let t = step () in
    let len = Memory.free t.memory ~addr in
    emit t (Event.E_free { tid = t.cur.tid; addr; len; loc });
    next t

  let spawn ~loc ~name body =
    let t = step () in
    let child = new_thread (Growvec.length t.threads) name (Some t.cur.tid) (Fresh body) loc in
    ignore (Growvec.push t.threads child);
    emit t (Event.E_thread_start { tid = child.tid; name; parent = Some t.cur.tid });
    emit t (Event.E_spawn { parent = t.cur.tid; child = child.tid; loc });
    let spawn_delay = match t.config.faults with Some inj -> Injector.spawn_delay inj | None -> 0 in
    if spawn_delay = 0 then enqueue_ready t child.tid
    else t.delayed_fresh <- (child.tid, t.clock + spawn_delay) :: t.delayed_fresh;
    next t;
    child.tid

  let join ~loc tid =
    let t = step () in
    if tid < 0 || tid >= Growvec.length t.threads then
      raise (Misuse (Fmt.str "join of unknown thread %d" tid));
    let target = thread t tid in
    if target.status = Done then begin
      emit t (Event.E_join { joiner = t.cur.tid; joined = tid; loc });
      next t
    end
    else begin
      target.join_waiters <- t.cur.tid :: target.join_waiters;
      t.cur.status <- Blocked (On_join tid);
      block t
    end

  let mutex_create ~loc name =
    let t = step () in
    let m = { m_id = Growvec.length t.mutexes; m_name = name; m_owner = None; m_waiters = Queue.create () } in
    ignore (Growvec.push t.mutexes m);
    created t (Event.Mutex m.m_id) ~name ~loc;
    m.m_id

  let mutex_lock ~loc m =
    let t = step () in
    let mu = Growvec.get t.mutexes m in
    match mu.m_owner with
    | None ->
        mu.m_owner <- Some t.cur.tid;
        emit t (Event.E_acquire { tid = t.cur.tid; lock = Event.Mutex m; mode = Write_mode; loc });
        let lock_delay = match t.config.faults with Some inj -> Injector.lock_delay inj | None -> 0 in
        if lock_delay = 0 then next t
        else begin
          (* slow-acquire fault: the lock is held from this moment
             (contention builds behind it) but the owner stalls before
             proceeding *)
          t.cur.status <- Blocked (On_sleep (t.clock + lock_delay));
          block t
        end
    | Some owner when owner = t.cur.tid ->
        raise (Misuse (Fmt.str "thread %d relocks non-recursive mutex %S" t.cur.tid mu.m_name))
    | Some _ ->
        Queue.push t.cur.tid mu.m_waiters;
        t.cur.status <- Blocked (On_mutex m);
        block t

  let mutex_trylock ~loc m =
    let t = step () in
    let mu = Growvec.get t.mutexes m in
    let got = mu.m_owner = None in
    if got then begin
      mu.m_owner <- Some t.cur.tid;
      emit t (Event.E_acquire { tid = t.cur.tid; lock = Event.Mutex m; mode = Write_mode; loc })
    end;
    next t;
    got

  let mutex_unlock ~loc m =
    let t = step () in
    do_mutex_unlock t t.cur (Growvec.get t.mutexes m) ~loc;
    next t

  let rwlock_create ~loc name =
    let t = step () in
    let rw =
      { rw_id = Growvec.length t.rwlocks; rw_name = name; rw_writer = None; rw_readers = []; rw_waiters = Queue.create () }
    in
    ignore (Growvec.push t.rwlocks rw);
    created t (Event.Rwlock rw.rw_id) ~name ~loc;
    rw.rw_id

  let rwlock_lock ~loc rw mode =
    let t = step () in
    let r = Growvec.get t.rwlocks rw in
    if r.rw_writer = None && Queue.is_empty r.rw_waiters && (mode = Read_mode || r.rw_readers = [])
    then begin
      (match mode with
      | Read_mode -> r.rw_readers <- t.cur.tid :: r.rw_readers
      | Write_mode -> r.rw_writer <- Some t.cur.tid);
      emit t (Event.E_acquire { tid = t.cur.tid; lock = Event.Rwlock rw; mode; loc });
      next t
    end
    else begin
      Queue.push (t.cur.tid, mode) r.rw_waiters;
      t.cur.status <- Blocked (On_rwlock (rw, mode));
      block t
    end

  let rwlock_unlock ~loc rw =
    let t = step () in
    let r = Growvec.get t.rwlocks rw in
    (if r.rw_writer = Some t.cur.tid then r.rw_writer <- None
     else if List.mem t.cur.tid r.rw_readers then
       (* one hold per [rdlock]: an unlock releases one *)
       r.rw_readers <- Int_list.remove_one t.cur.tid r.rw_readers
     else raise (Misuse (Fmt.str "thread %d unlocks rwlock %S it does not hold" t.cur.tid r.rw_name)));
    emit t (Event.E_release { tid = t.cur.tid; lock = Event.Rwlock rw; loc });
    rwlock_grant_waiters t r ~loc;
    next t

  let cond_create ~loc name =
    let t = step () in
    let cv = { cv_id = Growvec.length t.conds; cv_name = name; cv_waiters = Queue.create (); cv_signallers = [] } in
    ignore (Growvec.push t.conds cv);
    created t (Event.Cond cv.cv_id) ~name ~loc;
    cv.cv_id

  let cond_wait ~loc cv m =
    let t = step () in
    let th = t.cur in
    let c = Growvec.get t.conds cv in
    let mu = Growvec.get t.mutexes m in
    emit t (Event.E_cond_wait_pre { tid = th.tid; cv; m; loc });
    do_mutex_unlock t th mu ~loc;
    Queue.push (th.tid, m) c.cv_waiters;
    th.status <- Blocked (On_cond (cv, m));
    block t;
    match th.signal_loc with
    | None -> ()
    | Some loc ->
        th.signal_loc <- None;
        emit t (Event.E_cond_wait_post { tid = th.tid; cv; m; loc })

  let cond_signal ~loc ~broadcast cv =
    let t = step () in
    let c = Growvec.get t.conds cv in
    c.cv_signallers <- Int_list.add_new t.cur.tid c.cv_signallers;
    emit t (Event.E_cond_signal { tid = t.cur.tid; cv; broadcast; loc });
    wake_cond_waiters t c ~all:broadcast ~loc;
    next t

  let sem_create ~loc ~init name =
    let t = step () in
    let s =
      { sem_id = Growvec.length t.sems; sem_name = name; sem_count = init; sem_waiters = Queue.create (); sem_posters = [] }
    in
    ignore (Growvec.push t.sems s);
    created t (Event.Sem s.sem_id) ~name ~loc;
    s.sem_id

  let sem_wait ~loc s =
    let t = step () in
    let sem = Growvec.get t.sems s in
    if sem.sem_count > 0 then begin
      sem.sem_count <- sem.sem_count - 1;
      emit t (Event.E_sem_wait_post { tid = t.cur.tid; sem = s; loc });
      next t
    end
    else begin
      Queue.push t.cur.tid sem.sem_waiters;
      t.cur.status <- Blocked (On_sem s);
      block t
    end

  let sem_post ~loc s =
    let t = step () in
    let sem = Growvec.get t.sems s in
    sem.sem_posters <- Int_list.add_new t.cur.tid sem.sem_posters;
    emit t (Event.E_sem_post { tid = t.cur.tid; sem = s; loc });
    (if Queue.is_empty sem.sem_waiters then sem.sem_count <- sem.sem_count + 1
     else begin
       let w = Queue.pop sem.sem_waiters in
       emit t (Event.E_sem_wait_post { tid = w; sem = s; loc });
       enqueue_ready t w
     end);
    next t

  let client req =
    let t = step () in
    let loc = match t.cur.frames with [] -> Loc.unknown | l :: _ -> l in
    emit t (Event.E_client { tid = t.cur.tid; req; loc });
    next t

  let yield () =
    let t = step () in
    next t

  let sleep n =
    let t = step () in
    t.cur.status <- Blocked (On_sleep (t.clock + max 1 n));
    block t

  let now () =
    let t = step () in
    let clock = t.clock in
    next t;
    clock

  let self () =
    let t = step () in
    let tid = t.cur.tid in
    next t;
    tid

  let push_frame loc =
    let t = step () in
    t.cur.frames <- loc :: t.cur.frames;
    next t

  let pop_frame () =
    let t = step () in
    (match t.cur.frames with [] -> () | _ :: rest -> t.cur.frames <- rest);
    next t

  let random_int bound =
    let t = step () in
    let v = Rng.int t.rng bound in
    next t;
    v
end

(* ------------------------------------------------------------------ *)
(* The scheduler                                                       *)
(* ------------------------------------------------------------------ *)

let thread_finished t th =
  th.status <- Done;
  publish t (Event.E_thread_exit { tid = th.tid });
  List.iter
    (fun w ->
      publish t (Event.E_join { joiner = w; joined = th.tid; loc = Loc.unknown });
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

(* The scheduler is a trampoline.  [schedule] picks a thread and resumes
   it; the thread runs its operations on its own fiber until one blocks
   or picks another thread, and then performs [Suspend], whose handler
   stores the continuation and resumes the pick or calls [schedule]
   ([retc]/[exnc] call [schedule] too; [Abort] raises out to {!run}).
   Each of these calls, and [continue]/[match_with] in [run_thread], is
   a tail call (a tail [%resume]/[%runstack] compiles to a jump), so the
   carrier stack stays flat however many operations run; [schedule]
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

(* Count the decision that picked [th] and resume it. *)
and run_thread t th =
  t.cur <- th;
  t.switches <- t.switches + 1;
  match th.status with
  | Fresh body ->
      th.status <- Running;
      Effect.Deep.match_with body () (handler t th)
  | Ready -> (
      th.status <- Running;
      match th.k with
      | Some k ->
          th.k <- None;
          Effect.Deep.continue k ()
      | None -> invalid_arg "run_thread: ready thread without continuation")
  | Running | Blocked _ | Done -> invalid_arg "run_thread: thread not runnable"

(* Built once per thread, with the one [Suspend] closure it returns. *)
and handler t th : (unit, unit) Effect.Deep.handler =
  let suspend =
    Some
      (fun k ->
        th.k <- Some k;
        if t.next < 0 then schedule t else run_thread t (thread t t.next))
  in
  {
    retc = (fun () -> thread_finished t th; schedule t);
    exnc = (fun e -> th.failure <- Some e; thread_finished t th; schedule t);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Suspend -> suspend | Abort e -> Some (fun _ -> raise e) | _ -> None);
  }

let run_id () = (Domain.DLS.get slot).runs

let run t main =
  let domain = Domain.DLS.get slot in
  let outer = domain.vm in
  domain.runs <- domain.runs + 1;
  domain.vm <- Some t;
  ignore (Growvec.push t.threads (new_thread 0 "main" None (Fresh main) (Loc.v "<vm>" "main" 0)));
  let deadlock =
    Fun.protect ~finally:(fun () -> domain.vm <- outer) @@ fun () ->
    try
      publish t (Event.E_thread_start { tid = 0; name = "main"; parent = None });
      enqueue_ready t 0;
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
  {
    deadlock;
    failures = List.rev failures;
    stats =
      {
        ops_executed = t.ops;
        threads_created = Growvec.length t.threads;
        memory_allocs = Memory.total_allocs t.memory;
        memory_live_words = Memory.live_words t.memory;
      };
  }
