(** The virtual machine engine: a deterministic cooperative scheduler
    for simulated threads (the Valgrind-substitute substrate).

    Create a VM, attach tools, then {!run} a main function that uses
    {!Api} operations.  Execution is fully serialised: tools observe
    one totally ordered event stream, and a given (program, seed,
    policy) triple reproduces bit-for-bit. *)

(** {1 Configuration} *)

type policy =
  | Round_robin  (** strict FIFO over ready threads *)
  | Random_seeded  (** uniformly random among ready threads (uses seed) *)
  | Scripted of int array
      (** replay a decision script: the k-th nontrivial scheduling
          decision picks ready thread [script.(k) mod n]; past the end
          of the script decisions default to 0 (FIFO).  The backbone of
          systematic schedule exploration ({!Explore}). *)

val pp_policy : Format.formatter -> policy -> unit

type config = {
  seed : int;
  policy : policy;
  reuse_memory : bool;  (** allocator recycles freed blocks *)
  max_ops : int;  (** safety valve against runaway simulations *)
  tracer : Raceguard_obs.Trace.t option;
      (** offer every emitted event to this sampling ring tracer
          (Chrome trace_event export); [None] (the default) costs one
          comparison per event *)
  faults : Raceguard_faults.Injector.t option;
      (** fault-injection decision engine for delayed thread starts and
          slow mutex acquisitions; [None] (the default) costs one
          comparison per spawn / free-mutex acquisition.  Fault
          decisions come from the injector's own streams, so the
          scheduler's rng — and therefore every fault-free run — is
          untouched *)
}

val default_config : config

(** {1 Outcomes} *)

(** Why a run stopped. *)
type stop =
  | Clean  (** every thread finished *)
  | Deadlock  (** no thread could run or wake, and some were blocked *)
  | Hang
      (** main's wait chain was orphaned while sleepers kept cycling
          (see {!run}) *)
  | Op_budget  (** [config.max_ops] ran out *)

val stop_name : stop -> string
(** ["clean"], ["deadlock"], ["hang"] or ["op-budget"]. *)

type deadlock = {
  dl_stop : stop;  (** [Deadlock], [Hang] or [Op_budget] *)
  dl_cycle : (int * string) list;  (** threads in a waits-for cycle *)
  dl_stuck : (int * string) list;
      (** the other threads that did not finish, each with what it was
          doing: blocked threads with no waker when nothing could run;
          every live thread, with its name and op count, on a hang or
          when the op budget ran out *)
}

val pp_deadlock : Format.formatter -> deadlock -> unit

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
      (** set when the run ended with blocked threads (cyclic wait or
          lost wake-up), stopped as a hang, or exhausted its operation
          budget; [dl_stop] says which *)
  failures : (int * string * exn) list;
      (** threads that raised, as (tid, name, exn); API misuse (bad
          unlock, double free, out-of-bounds access) lands here *)
  stats : run_stats;
}

val stop_of : outcome -> stop
(** [Clean] when [deadlock] is [None], its [dl_stop] otherwise. *)

exception Misuse of string
(** Raised {e inside} a simulated thread on API misuse; shows up in
    [failures] unless the program catches it. *)

(** {1 The VM} *)

type t

val create : ?config:config -> unit -> t

val add_tool : t -> Tool.t -> unit
(** Attach a tool; it sees every event from then on.  Any number of
    tools can watch the same run. *)

val run : t -> (unit -> unit) -> outcome
(** Execute [main] as thread 0 until every thread finishes, a deadlock
    or hang is detected, or the op budget runs out.  A VM is single-use:
    create a fresh one per run.

    A {e deadlock} is found when no thread can run or wake up but some
    are blocked: the waits-for graph names the cycle, or the blocked
    threads with no waker.

    A {e hang} is the same state kept alive by sleepers.  Whenever the
    ready queue empties while main is blocked and some thread sleeps,
    the VM walks main's wait chain: a mutex or rwlock leads to its
    holder(s) and a join to its target.  Main is {e orphaned} when every
    thread reached that way is done or itself orphaned (a wait cycle
    counts as orphaned).  A thread waiting on a condition variable or
    semaphore is orphaned only when some thread has signalled or posted
    that object and every such thread is done; an object that no other
    thread ever signalled or posted never stops a run.  The run stops as
    a hang when main stays orphaned, with no thread of its chain woken,
    until every sleeper seen when it was first found orphaned has woken
    and run: a sleeper that first signals the chain later than its next
    wake-up is taken for a hang.  [dl_stuck] then lists every live
    thread: the orphaned chain, with the finished signallers or posters
    of its condition variable or semaphore, and the sleepers still
    cycling, each with its name and op count.  No option turns the check
    off or tunes it.

    The op budget stays the fallback for a spin livelock, where threads
    never sleep or never stop being ready; its [dl_stuck] lists every
    live thread with its name, state and op count. *)

val memory : t -> Memory.t

val decision_log : t -> (int * int) list
(** Chronological log of the run's nontrivial scheduling decisions as
    (chosen index, arity) pairs — only decision points with more than
    one ready thread are logged, and only under the [Scripted] policy
    (its sole consumer).  Meaningful after {!run}; used by {!Explore}
    to enumerate alternative schedules. *)
